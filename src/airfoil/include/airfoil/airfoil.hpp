// Umbrella header for the Airfoil benchmark application.
#pragma once

#include "airfoil/constants.hpp"
#include "airfoil/kernels.hpp"
#include "airfoil/loops.hpp"
#include "airfoil/mesh.hpp"
#include "airfoil/resilience.hpp"
#include "airfoil/sharded.hpp"
#include "airfoil/solver.hpp"
#include "airfoil/state_io.hpp"
