// The reliable halo-exchange wire (`ctest -L wire`): frame codec and
// CRC integrity (every single-bit flip detected), the OP2_WIRE_FAULT
// chaos grammar and its deterministic injection, the ack/retransmit
// protocol's state machine edges (heal, budget edge, link death with a
// structured exchange_error), and the full stack under the exchanger —
// including the sharded Airfoil bit-exactness matrix under drop / dup
// / reorder / corrupt, and the kill-a-link run that heals via the job
// service's retry while a bystander tenant stays bit-identical.  The
// WireStress suite is additionally run under ThreadSanitizer by
// scripts/check.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "airfoil/airfoil.hpp"
#include "hpxlite/hpxlite.hpp"
#include "op2/exchange.hpp"
#include "op2/op2.hpp"
#include "op2/shard.hpp"
#include "op2/wire.hpp"

namespace {

namespace w = op2::wire;

std::span<const std::byte> as_bytes(const std::vector<double>& v) {
  return {reinterpret_cast<const std::byte*>(v.data()),
          v.size() * sizeof(double)};
}

std::vector<std::byte> make_payload(std::size_t n, unsigned seed) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((seed + 31 * i) & 0xFF);
  }
  return out;
}

// --- frame codec ------------------------------------------------------

TEST(WireFrame, RoundTripsHeaderAndPayload) {
  const auto payload = make_payload(40, 7);
  const auto frame = w::encode_frame(w::frame_type::data, 3, 17, 42, payload);
  ASSERT_EQ(frame.size(), w::kFrameHeaderBytes + payload.size());
  const auto f = w::decode_frame(frame);
  ASSERT_EQ(f.status, w::decode_status::ok);
  EXPECT_EQ(f.type, w::frame_type::data);
  EXPECT_EQ(f.link, 3u);
  EXPECT_EQ(f.round, 17u);
  EXPECT_EQ(f.seq, 42u);
  ASSERT_EQ(f.payload.size(), payload.size());
  EXPECT_EQ(std::memcmp(f.payload.data(), payload.data(), payload.size()), 0);
}

TEST(WireFrame, EmptyAckRoundTrips) {
  const auto frame = w::encode_frame(w::frame_type::ack, 1, 0, 9, {});
  const auto f = w::decode_frame(frame);
  ASSERT_EQ(f.status, w::decode_status::ok);
  EXPECT_EQ(f.type, w::frame_type::ack);
  EXPECT_EQ(f.seq, 9u);
  EXPECT_TRUE(f.payload.empty());
}

TEST(WireFrame, Crc32cMatchesTheKnownVector) {
  // The classic CRC32C check value for the ASCII digits "123456789".
  const char* digits = "123456789";
  EXPECT_EQ(w::crc32c({reinterpret_cast<const std::byte*>(digits), 9}),
            0xE3069283u);
}

TEST(WireFrame, EverySingleBitFlipIsDetected) {
  const auto payload = make_payload(12, 3);
  auto frame = w::encode_frame(w::frame_type::data, 0, 1, 1, payload);
  ASSERT_EQ(w::decode_frame(frame).status, w::decode_status::ok);
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    frame[bit / 8] ^= static_cast<std::byte>(1U << (bit % 8));
    EXPECT_NE(w::decode_frame(frame).status, w::decode_status::ok)
        << "flip of bit " << bit << " went undetected";
    frame[bit / 8] ^= static_cast<std::byte>(1U << (bit % 8));
  }
  EXPECT_EQ(w::decode_frame(frame).status, w::decode_status::ok);
}

TEST(WireFrame, MalformedBuffersAreRejectedWithAReason) {
  const auto frame = w::encode_frame(w::frame_type::data, 0, 1, 1,
                                     make_payload(8, 1));
  // Shorter than the header.
  std::vector<std::byte> runt(frame.begin(),
                              frame.begin() + w::kFrameHeaderBytes - 1);
  EXPECT_EQ(w::decode_frame(runt).status, w::decode_status::truncated);
  // Wrong magic.
  auto foreign = frame;
  foreign[0] = static_cast<std::byte>(0x00);
  EXPECT_EQ(w::decode_frame(foreign).status, w::decode_status::bad_magic);
  // Trailing junk disagrees with payload_len before the CRC is tried.
  auto grown = frame;
  grown.push_back(static_cast<std::byte>(0xAB));
  EXPECT_EQ(w::decode_frame(grown).status, w::decode_status::bad_length);
}

// --- OP2_WIRE_FAULT grammar -------------------------------------------

TEST(WireFaultGrammar, ParsesADirectedLinkWithDefaults) {
  const auto specs = w::parse_wire_fault_specs("link=0->1:drop");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].from, 0);
  EXPECT_EQ(specs[0].to, 1);
  EXPECT_EQ(specs[0].kind, w::wire_fault_kind::drop);
  EXPECT_EQ(specs[0].at, 1);
  EXPECT_EQ(specs[0].count, 1);
  EXPECT_EQ(specs[0].seed, 12345u);
}

TEST(WireFaultGrammar, ParsesOptionsAndWildcards) {
  const auto specs = w::parse_wire_fault_specs(
      "link=*:corrupt:prob=0.25,seed=7,count=-1");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].from, -1);
  EXPECT_EQ(specs[0].to, -1);
  EXPECT_EQ(specs[0].kind, w::wire_fault_kind::corrupt);
  EXPECT_EQ(specs[0].at, 0);  // prob mode
  EXPECT_DOUBLE_EQ(specs[0].probability, 0.25);
  EXPECT_EQ(specs[0].seed, 7u);
  EXPECT_EQ(specs[0].count, -1);

  const auto stall = w::parse_wire_fault_specs("link=2->0:stall:stall_ms=5");
  ASSERT_EQ(stall.size(), 1u);
  EXPECT_EQ(stall[0].kind, w::wire_fault_kind::stall);
  EXPECT_EQ(stall[0].stall_ms, 5);
}

TEST(WireFaultGrammar, SplitsOnSemicolonAndOnCommaBeforeLink) {
  // The comma inside "prob=0.05,seed=42" is an option separator; the
  // comma right before "link=" separates whole specs.
  const auto specs = w::parse_wire_fault_specs(
      "link=0->1:drop:prob=0.05,seed=42,link=1->0:dup;link=*:stall");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].kind, w::wire_fault_kind::drop);
  EXPECT_DOUBLE_EQ(specs[0].probability, 0.05);
  EXPECT_EQ(specs[0].seed, 42u);
  EXPECT_EQ(specs[1].from, 1);
  EXPECT_EQ(specs[1].kind, w::wire_fault_kind::duplicate);
  EXPECT_EQ(specs[2].from, -1);
  EXPECT_EQ(specs[2].kind, w::wire_fault_kind::stall);
}

TEST(WireFaultGrammar, RejectsMalformedSpecsWithTheGrammar) {
  for (const char* bad :
       {"drop", "link=0->1", "link=0->1:melt", "link=0:drop",
        "link=0->1:drop:prob=2", "link=0->1:drop:at=0",
        "link=0->1:drop:count=0", "link=0->1:drop:wat=1", ""}) {
    EXPECT_THROW(w::parse_wire_fault_specs(bad), std::invalid_argument)
        << "'" << bad << "' should not parse";
  }
}

// --- shm_wire ---------------------------------------------------------

TEST(ShmWire, DeliversPromptFramesInSendOrder) {
  w::shm_wire wire;
  wire.send(0, make_payload(4, 1), std::chrono::microseconds{0});
  wire.send(0, make_payload(4, 2), std::chrono::microseconds{0});
  std::vector<std::byte> got;
  ASSERT_TRUE(wire.recv(got, std::chrono::milliseconds(100)));
  EXPECT_EQ(got, make_payload(4, 1));
  ASSERT_TRUE(wire.recv(got, std::chrono::milliseconds(100)));
  EXPECT_EQ(got, make_payload(4, 2));
  EXPECT_FALSE(wire.recv(got, std::chrono::milliseconds(5)));
}

TEST(ShmWire, DelayedFrameDoesNotBlockFramesBehindIt) {
  // The delayed frame arrives late — i.e. the wire reorders, exactly
  // what the reliability protocol must absorb.
  w::shm_wire wire;
  wire.send(0, make_payload(4, 1), std::chrono::milliseconds(60));
  wire.send(0, make_payload(4, 2), std::chrono::microseconds{0});
  std::vector<std::byte> got;
  ASSERT_TRUE(wire.recv(got, std::chrono::milliseconds(10)));
  EXPECT_EQ(got, make_payload(4, 2));
  ASSERT_TRUE(wire.recv(got, std::chrono::milliseconds(500)));
  EXPECT_EQ(got, make_payload(4, 1));
}

TEST(ShmWire, CloseWakesABlockedRecv) {
  w::shm_wire wire;
  std::atomic<bool> returned{false};
  std::thread receiver([&] {
    std::vector<std::byte> got;
    EXPECT_FALSE(wire.recv(got, std::chrono::seconds(30)));
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  wire.close();
  receiver.join();
  EXPECT_TRUE(returned.load());
  EXPECT_TRUE(wire.closed());
}

// --- chaos_transport --------------------------------------------------

/// A chaos_transport over a fresh shm_wire with link 0 mapped 0->1.
struct chaos_rig {
  std::shared_ptr<w::shm_wire> inner = std::make_shared<w::shm_wire>();
  std::shared_ptr<w::chaos_state> state;
  std::unique_ptr<w::chaos_transport> chaos;

  explicit chaos_rig(const std::string& spec)
      : state(std::make_shared<w::chaos_state>(
            w::parse_wire_fault_specs(spec))) {
    chaos = std::make_unique<w::chaos_transport>(inner, state);
    chaos->map_link(0, 0, 1);
  }

  void send_data(std::uint64_t seq) {
    const auto frame = w::encode_frame(w::frame_type::data, 0, 1, seq,
                                       make_payload(8, unsigned(seq)));
    chaos->send(0, frame, std::chrono::microseconds{0});
  }

  /// Receives one frame and returns its seq (or -1 on timeout).
  long long recv_seq(int timeout_ms = 100) {
    std::vector<std::byte> buf;
    if (!inner->recv(buf, std::chrono::milliseconds(timeout_ms))) {
      return -1;
    }
    const auto f = w::decode_frame(buf);
    return f.status == w::decode_status::ok
               ? static_cast<long long>(f.seq)
               : -2;  // delivered but mangled
  }
};

TEST(WireChaos, DecisionsAreDeterministicForAFixedSeed) {
  const auto specs =
      w::parse_wire_fault_specs("link=0->1:drop:prob=0.5,seed=99,count=-1");
  w::chaos_state a(specs);
  w::chaos_state b(specs);
  int fired_a = 0;
  for (int i = 0; i < 64; ++i) {
    const auto da = a.decide(0, 1);
    const auto db = b.decide(0, 1);
    EXPECT_EQ(da.kind, db.kind) << "frame " << i;
    fired_a += da.kind != w::wire_fault_kind::none;
  }
  EXPECT_EQ(a.fired(), b.fired());
  EXPECT_EQ(a.fired(), fired_a);
  EXPECT_GT(fired_a, 0);
  EXPECT_LT(fired_a, 64);
}

TEST(WireChaos, DropEatsExactlyTheTargetedFrame) {
  chaos_rig rig("link=0->1:drop:at=1");
  rig.send_data(1);
  EXPECT_EQ(rig.recv_seq(10), -1);  // eaten
  rig.send_data(2);
  EXPECT_EQ(rig.recv_seq(), 2);  // budget spent, passes
  EXPECT_EQ(rig.state->fired(), 1);
}

TEST(WireChaos, DuplicateDeliversTheFrameTwice) {
  chaos_rig rig("link=0->1:dup:at=1");
  rig.send_data(1);
  EXPECT_EQ(rig.recv_seq(), 1);
  EXPECT_EQ(rig.recv_seq(), 1);
  EXPECT_EQ(rig.recv_seq(10), -1);
}

TEST(WireChaos, CorruptFlipsOneBitTheDecoderCatches) {
  chaos_rig rig("link=0->1:corrupt:at=1");
  rig.send_data(1);
  EXPECT_EQ(rig.recv_seq(), -2);  // delivered but fails decode
}

TEST(WireChaos, ReorderSwapsTheFrameWithItsSuccessor) {
  chaos_rig rig("link=0->1:reorder:at=1");
  rig.send_data(1);  // pocketed
  EXPECT_EQ(rig.recv_seq(10), -1);
  rig.send_data(2);  // clean send releases the pocket behind it
  EXPECT_EQ(rig.recv_seq(), 2);
  EXPECT_EQ(rig.recv_seq(), 1);
}

TEST(WireChaos, StallDelaysDeliveryWithoutBlockingTheSender) {
  chaos_rig rig("link=0->1:stall:at=1,stall_ms=60");
  const auto t0 = std::chrono::steady_clock::now();
  rig.send_data(1);
  const auto send_cost = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(send_cost, std::chrono::milliseconds(50));  // sender not stalled
  EXPECT_EQ(rig.recv_seq(5), -1);                       // not yet visible
  EXPECT_EQ(rig.recv_seq(1000), 1);                     // ... then it is
}

TEST(WireChaos, AcksMatchTheReverseDirectionOfTheirLink) {
  // The spec targets 1->0 — the direction acks for link 0 (0->1)
  // travel.  Data frames must pass; the first ack must be eaten.
  chaos_rig rig("link=1->0:drop:at=1");
  rig.send_data(1);
  EXPECT_EQ(rig.recv_seq(), 1);
  const auto ack = w::encode_frame(w::frame_type::ack, 0, 0, 1, {});
  rig.chaos->send(0, ack, std::chrono::microseconds{0});
  EXPECT_EQ(rig.recv_seq(10), -1);
  EXPECT_EQ(rig.state->fired(), 1);
}

TEST(WireChaos, InjectorBudgetIsSharedAcrossTransportInstances) {
  // The process-wide injector publishes ONE chaos_state: a transport
  // built later (a job retry's rebuilt exchanger) finds the `count`
  // budget already spent and runs clean.
  w::wire_fault_injector::configure("link=0->1:drop:at=1");
  auto inner = std::make_shared<w::shm_wire>();
  {
    w::chaos_transport first(inner, w::wire_fault_injector::state());
    first.map_link(0, 0, 1);
    first.send(0, w::encode_frame(w::frame_type::data, 0, 1, 1, {}),
               std::chrono::microseconds{0});
    std::vector<std::byte> buf;
    EXPECT_FALSE(inner->recv(buf, std::chrono::milliseconds(10)));
  }
  {
    w::chaos_transport second(inner, w::wire_fault_injector::state());
    second.map_link(0, 0, 1);
    second.send(0, w::encode_frame(w::frame_type::data, 0, 1, 2, {}),
                std::chrono::microseconds{0});
    std::vector<std::byte> buf;
    EXPECT_TRUE(inner->recv(buf, std::chrono::milliseconds(100)));
  }
  EXPECT_EQ(w::wire_fault_injector::fired_count(), 1);
  w::wire_fault_injector::clear();
  EXPECT_FALSE(w::wire_fault_injector::active());
}

// --- reliable_transport -----------------------------------------------

/// reliable_transport over an optionally-chaotic shm_wire, one link
/// mapped 0->1.  The transport is its own peer: frames published on
/// link 0 loop back through the shared wire into its pump.
struct reliable_rig {
  std::shared_ptr<w::datagram_wire> wire;
  std::unique_ptr<op2::reliable_transport> rel;

  explicit reliable_rig(const std::string& chaos_spec = "",
                        int timeout_ms = 10, int retries = 5) {
    wire = std::make_shared<w::shm_wire>();
    if (!chaos_spec.empty()) {
      auto chaos = std::make_shared<w::chaos_transport>(
          wire, w::parse_wire_fault_specs(chaos_spec));
      chaos->map_link(0, 0, 1);
      wire = chaos;
    }
    op2::reliable_options opts;
    opts.timeout_ms = timeout_ms;
    opts.retries = retries;
    rel = std::make_unique<op2::reliable_transport>(wire, 1, opts);
    rel->map_link(0, 0, 1);
  }

  void publish_round(std::uint64_t round) {
    const std::vector<double> payload = {double(round), -double(round)};
    rel->publish(0, round, as_bytes(payload));
  }

  void expect_round(std::uint64_t round) {
    std::vector<double> got(2, 0.0);
    rel->consume(0, round,
                 {reinterpret_cast<std::byte*>(got.data()),
                  got.size() * sizeof(double)});
    EXPECT_EQ(got[0], double(round));
    EXPECT_EQ(got[1], -double(round));
  }
};

TEST(ReliableTransport, DeliversRoundsInOrderOnACleanWire) {
  reliable_rig rig;
  for (std::uint64_t r = 1; r <= 5; ++r) {
    rig.publish_round(r);
  }
  for (std::uint64_t r = 1; r <= 5; ++r) {
    rig.expect_round(r);
  }
  const auto s = rig.rel->wire_stats();
  EXPECT_EQ(s.frames_sent, 5u);
  EXPECT_EQ(s.frames_received, 5u);
  EXPECT_EQ(s.dup_dropped, 0u);
  EXPECT_EQ(s.corrupt_dropped, 0u);
  EXPECT_EQ(s.dead_links, 0u);
}

TEST(ReliableTransport, HealsADroppedFrameByRetransmitting) {
  reliable_rig rig("link=0->1:drop:at=1");
  rig.publish_round(1);
  rig.expect_round(1);
  const auto s = rig.rel->wire_stats();
  EXPECT_GE(s.retransmits, 1u);
  EXPECT_GE(s.timeouts, 1u);
  EXPECT_FALSE(rig.rel->link_dead(0));
}

TEST(ReliableTransport, SurvivesExactlyTheRetransmitBudgetEdge) {
  // The first three transmissions (original + 2 retransmits) are
  // dropped; the budget allows 1 + retries = 6, so the 4th attempt
  // lands and the link stays alive with exactly 3 retransmits.
  reliable_rig rig("link=0->1:drop:at=1,count=3", /*timeout_ms=*/5,
                   /*retries=*/5);
  rig.publish_round(1);
  rig.expect_round(1);
  const auto s = rig.rel->link_wire_stats(0);
  EXPECT_EQ(s.retransmits, 3u);
  EXPECT_EQ(s.timeouts, 3u);
  EXPECT_EQ(s.dead_links, 0u);
  EXPECT_FALSE(rig.rel->link_dead(0));
}

TEST(ReliableTransport, DropsDuplicatesExactlyOnceDelivery) {
  reliable_rig rig("link=0->1:dup:at=1");
  rig.publish_round(1);
  rig.expect_round(1);
  // Both copies arrive; the second is discarded and re-acked.  consume
  // only needs the first copy, so give the pump a moment to ingest the
  // duplicate before reading the counters.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (rig.rel->wire_stats().frames_received < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto s = rig.rel->wire_stats();
  EXPECT_EQ(s.frames_received, 2u);
  EXPECT_EQ(s.dup_dropped, 1u);
}

TEST(ReliableTransport, RejectsACorruptFrameAndHealsIt) {
  reliable_rig rig("link=0->1:corrupt:at=1");
  rig.publish_round(1);
  rig.expect_round(1);
  const auto s = rig.rel->wire_stats();
  EXPECT_GE(s.corrupt_dropped, 1u);  // the bent copy never delivered
  EXPECT_GE(s.retransmits, 1u);      // the clean copy came from a resend
}

TEST(ReliableTransport, ReassemblesReorderedFramesInOrder) {
  reliable_rig rig("link=0->1:reorder:at=1", /*timeout_ms=*/25);
  rig.publish_round(1);  // pocketed behind round 2
  rig.publish_round(2);
  rig.expect_round(1);
  rig.expect_round(2);
  const auto s = rig.rel->wire_stats();
  EXPECT_EQ(s.frames_sent, 2u);
  EXPECT_EQ(s.dup_dropped, 0u);
}

TEST(ReliableTransport, PermanentLossKillsTheLinkWithAStructuredError) {
  reliable_rig rig("link=0->1:drop:at=1,count=-1", /*timeout_ms=*/2,
                   /*retries=*/2);
  rig.publish_round(1);
  try {
    rig.expect_round(1);
    FAIL() << "consume of a black-holed round must throw";
  } catch (const op2::exchange_error& e) {
    EXPECT_EQ(e.link(), 0u);
    EXPECT_EQ(e.from(), 0);
    EXPECT_EQ(e.to(), 1);
    EXPECT_EQ(e.round(), 1u);
    EXPECT_NE(e.reason().find("dead"), std::string::npos) << e.reason();
  }
  EXPECT_TRUE(rig.rel->link_dead(0));
  const auto s = rig.rel->link_wire_stats(0);
  EXPECT_EQ(s.dead_links, 1u);
  EXPECT_GE(s.wire_errors, 1u);
  EXPECT_EQ(s.timeouts, 3u);  // 1 + retries expiries, then death
  // The dead link fails fast on the publish side too.
  EXPECT_THROW(rig.publish_round(2), op2::exchange_error);
}

TEST(ReliableTransport, ConsumeOfANeverPublishedRoundTimesOut) {
  reliable_rig rig("", /*timeout_ms=*/2, /*retries=*/1);
  std::vector<std::byte> out(8);
  try {
    rig.rel->consume(0, 1, out);
    FAIL() << "consume must throw instead of hanging";
  } catch (const op2::exchange_error& e) {
    EXPECT_EQ(e.round(), 1u);
    EXPECT_NE(e.reason().find("timed out"), std::string::npos) << e.reason();
  }
}

TEST(ReliableTransport, ShutdownReleasesABlockedConsume) {
  reliable_rig rig("", /*timeout_ms=*/1000, /*retries=*/5);
  std::atomic<bool> threw{false};
  std::thread consumer([&] {
    std::vector<std::byte> out(8);
    try {
      rig.rel->consume(0, 1, out);
    } catch (const op2::exchange_error&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(threw.load());
  rig.rel->shutdown();
  consumer.join();
  EXPECT_TRUE(threw.load());
}

// --- the exchanger over the wire stack --------------------------------

using op2::build_halo_partition;
using op2::halo_exchanger;
using op2::halo_partition;
using op2::op_decl_dat;
using op2::op_decl_map;
using op2::op_decl_set;

/// Three shards over a 12-cell ring (the test_exchange fixture): each
/// shard's q lives on its local [owned | halo] layout with dim 2.
struct ring_fixture {
  std::unique_ptr<halo_partition> hp;
  std::vector<op2::op_set> sets;
  std::vector<op2::op_dat> dats;

  ring_fixture() {
    const auto cells = op_decl_set(12, "cells");
    const auto edges = op_decl_set(12, "edges");
    std::vector<int> table;
    for (int i = 0; i < 12; ++i) {
      table.push_back(i);
      table.push_back((i + 1) % 12);
    }
    const auto adj = op_decl_map(edges, cells, 2, table, "adj");
    op2::partitioning parts;
    parts.nparts = 3;
    parts.part_of = {0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2};
    hp = std::make_unique<halo_partition>(
        build_halo_partition(parts, adj, 1));
    for (int s = 0; s < 3; ++s) {
      const auto& sp = hp->shards[static_cast<std::size_t>(s)];
      sets.push_back(op_decl_set(sp.local_count(), "local_cells"));
      const std::vector<double> zero(
          static_cast<std::size_t>(sp.local_count()) * 2, 0.0);
      dats.push_back(op_decl_dat<double>(
          sets.back(), 2, "double", std::span<const double>(zero), "q"));
    }
  }

  void stamp_owned(int round) {
    for (int s = 0; s < 3; ++s) {
      auto q = dats[static_cast<std::size_t>(s)].data<double>();
      const auto& sp = hp->shards[static_cast<std::size_t>(s)];
      for (int l = 0; l < sp.owned_count(); ++l) {
        const int g = sp.global_of(l);
        q[static_cast<std::size_t>(2 * l)] = round * 100.0 + g;
        q[static_cast<std::size_t>(2 * l + 1)] = -static_cast<double>(g);
      }
    }
  }

  void expect_halos(int round) {
    for (int s = 0; s < 3; ++s) {
      const auto q = dats[static_cast<std::size_t>(s)].data<double>();
      const auto& sp = hp->shards[static_cast<std::size_t>(s)];
      for (int l = sp.owned_count(); l < sp.local_count(); ++l) {
        const int g = sp.global_of(l);
        EXPECT_EQ(q[static_cast<std::size_t>(2 * l)], round * 100.0 + g)
            << "shard " << s << " halo cell " << g;
        EXPECT_EQ(q[static_cast<std::size_t>(2 * l + 1)],
                  -static_cast<double>(g));
      }
    }
  }
};

class WireExchanger : public ::testing::Test {
 protected:
  void TearDown() override {
    w::wire_fault_injector::clear();
    op2::profiling::enable(false);
    op2::profiling::reset();
    op2::finalize();
  }
};

TEST_F(WireExchanger, ReliableStackFillsEveryHaloWithoutChaos) {
  auto cfg = op2::make_config("hpx_async", 2);
  cfg.wire = "reliable";  // opt in without any fault configured
  op2::init(cfg);
  ring_fixture f;
  halo_exchanger x(f.hp.get(), f.dats);
  for (int round = 1; round <= 3; ++round) {
    f.stamp_owned(round);
    x.exchange();
    for (int s = 0; s < 3; ++s) {
      x.fence(s).wait();
    }
    f.expect_halos(round);
  }
  const auto s = x.wire_stats();
  EXPECT_GT(s.frames_sent, 0u);  // the framed path actually ran
  EXPECT_EQ(s.retransmits, 0u);
  EXPECT_EQ(s.dead_links, 0u);
}

TEST_F(WireExchanger, ChaosDropHealsInvisiblyAndShowsInProfiling) {
  auto cfg = op2::make_config("hpx_async", 2);
  cfg.wire_timeout_ms = 5;
  op2::init(cfg);
  // Configuring the injector is enough: the exchanger auto-upgrades
  // its default transport to the reliable wire stack.
  w::wire_fault_injector::configure("link=0->1:drop:at=1,count=2");
  op2::profiling::enable(true);
  op2::profiling::reset();
  {
    ring_fixture f;
    halo_exchanger x(f.hp.get(), f.dats);
    for (int round = 1; round <= 3; ++round) {
      f.stamp_owned(round);
      x.exchange();
      for (int s = 0; s < 3; ++s) {
        x.fence(s).wait();
      }
      f.expect_halos(round);
    }
    EXPECT_GE(x.wire_stats().retransmits, 2u);
    EXPECT_EQ(w::wire_fault_injector::fired_count(), 2);
  }  // destruction flushes the wire columns
  const auto shards = op2::profiling::shard_snapshot();
  std::uint64_t retransmits = 0;
  for (const auto& [sid, sp] : shards) {
    retransmits += sp.retransmits;
    EXPECT_EQ(sp.dead_links, 0u) << "shard " << sid;
  }
  EXPECT_GE(retransmits, 2u);
}

TEST_F(WireExchanger, DeadLinkFailsTheFenceWithAStructuredError) {
  auto cfg = op2::make_config("hpx_async", 2);
  cfg.wire_timeout_ms = 2;
  cfg.wire_retries = 1;
  op2::init(cfg);
  w::wire_fault_injector::configure("link=0->1:drop:at=1,count=-1");
  op2::profiling::enable(true);
  op2::profiling::reset();
  {
    ring_fixture f;
    halo_exchanger x(f.hp.get(), f.dats);
    f.stamp_owned(1);
    x.exchange();
    // Shard 1 imports from shard 0 over the black-holed link: its
    // fence must complete WITH the error, not hang.
    try {
      x.fence(1).wait();
      FAIL() << "the dead link's fence must rethrow";
    } catch (const op2::exchange_error& e) {
      EXPECT_EQ(e.from(), 0);
      EXPECT_EQ(e.to(), 1);
      EXPECT_EQ(e.round(), 1u);
    }
    EXPECT_TRUE(x.fence(1).failed());
    // The bystander shards' fences complete normally.
    x.fence(0).wait();
    x.fence(2).wait();
    // A failed fence rethrows on every wait, not just the first.
    EXPECT_THROW(x.fence(1).wait(), op2::exchange_error);
  }  // destruction after a failed round must not hang
  const auto shards = op2::profiling::shard_snapshot();
  ASSERT_TRUE(shards.count(1));
  EXPECT_EQ(shards.at(1).dead_links, 1u);
  EXPECT_GE(shards.at(1).wire_errors, 1u);
}

// --- sharded Airfoil bit-exactness under wire faults ------------------

using airfoil::generate_mesh;
using airfoil::make_sim;
using airfoil::mesh_params;
using airfoil::run_with_backend;

constexpr int kIters = 6;

mesh_params small_mesh() {
  mesh_params p;
  p.imax = 16;
  p.jmax = 8;
  return p;
}

struct field_result {
  std::vector<double> q;
  std::vector<double> rms;
};

field_result run_under(const op2::config& cfg, const std::string& backend) {
  op2::init(cfg);
  auto s = make_sim(generate_mesh(small_mesh()));
  const auto r = run_with_backend(s, kIters, backend);
  field_result out;
  const auto q = s.p_q.data<double>();
  out.q.assign(q.begin(), q.end());
  out.rms = r.rms_history;
  op2::finalize();
  return out;
}

const field_result& seq_reference() {
  static const field_result ref =
      run_under(op2::make_config("seq", 1, 32), "seq");
  return ref;
}

/// q must agree bit-for-bit; rms is a cross-shard sum (reassociated by
/// construction), so it gets a tight NEAR instead.
void expect_matches_seq(const field_result& got, const std::string& what) {
  const auto& ref = seq_reference();
  ASSERT_EQ(got.q.size(), ref.q.size()) << what;
  for (std::size_t i = 0; i < ref.q.size(); ++i) {
    ASSERT_EQ(got.q[i], ref.q[i]) << what << " q entry " << i;
  }
  ASSERT_EQ(got.rms.size(), ref.rms.size()) << what;
  for (std::size_t i = 0; i < ref.rms.size(); ++i) {
    EXPECT_NEAR(got.rms[i], ref.rms[i],
                1e-12 * std::max(1.0, std::fabs(ref.rms[i])))
        << what << " iteration " << i;
  }
}

op2::config shard_config(int nshards) {
  auto cfg = op2::make_config("hpx_shard", 4, 32);
  cfg.shards = nshards;
  return cfg;
}

/// (shard count, fault kind, per-frame probability in percent). The kind
/// is a std::string, not a const char*, so gtest prints it as text rather
/// than as an address: the printed parameter is part of the test's name.
using wire_matrix_param = std::tuple<int, std::string, int>;

class WireMatrix : public ::testing::TestWithParam<wire_matrix_param> {
 protected:
  void TearDown() override {
    w::wire_fault_injector::clear();
    op2::profiling::enable(false);
    op2::profiling::reset();
    op2::finalize();
  }
};

TEST_P(WireMatrix, BitIdenticalToSeqUnderWireFaults) {
  const auto [nshards, kind, percent] = GetParam();
  // The probabilistic spec soaks every link; the at-spec guarantees at
  // least one deterministic firing so the heal path provably ran.
  w::wire_fault_injector::configure(
      std::string("link=*:") + kind + ":prob=0." +
      (percent < 10 ? "0" : "") + std::to_string(percent) +
      ",seed=1234,count=-1;link=*:" + kind + ":at=3,count=1");
  auto cfg = shard_config(nshards);
  cfg.wire_timeout_ms = 10;
  const auto got = run_under(cfg, "hpx_shard");
  EXPECT_GE(w::wire_fault_injector::fired_count(), 1);
  expect_matches_seq(got, std::string("wire/") + kind + "/shards=" +
                              std::to_string(nshards));
}

std::string wire_matrix_name(
    const ::testing::TestParamInfo<wire_matrix_param>& p) {
  return std::get<1>(p.param) + "N" +
         std::to_string(std::get<0>(p.param));
}

INSTANTIATE_TEST_SUITE_P(
    FaultKinds, WireMatrix,
    ::testing::Values(wire_matrix_param{2, "drop", 3},
                      wire_matrix_param{4, "drop", 3},
                      wire_matrix_param{2, "dup", 5},
                      wire_matrix_param{4, "dup", 5},
                      wire_matrix_param{2, "reorder", 5},
                      wire_matrix_param{4, "reorder", 5},
                      wire_matrix_param{2, "corrupt", 2},
                      wire_matrix_param{4, "corrupt", 2}),
    wire_matrix_name);

// --- kill-a-link: healed by the job service's retry -------------------

class WireServiceHeal : public ::testing::Test {
 protected:
  void TearDown() override {
    w::wire_fault_injector::clear();
    op2::profiling::enable(false);
    op2::profiling::reset();
    op2::finalize();
  }
};

TEST_F(WireServiceHeal, DeadLinkHealsViaJobRetryAndSparesTheBystander) {
  namespace svc = op2::service;
  auto cfg = shard_config(2);
  cfg.wire_timeout_ms = 2;
  cfg.wire_retries = 2;
  op2::init(cfg);
  // Black-hole BOTH directions with budget 2 * (1 + retries): round
  // 1's two data frames each burn their full retransmit budget (no
  // frame is ever delivered, so no ack traffic competes for the drop
  // budget) and a link dies deterministically — attempt 1 of the
  // victim's job fails with exchange_error.  The spent (or nearly
  // spent) budget makes attempt 2 — a rebuilt exchanger over the same
  // process-wide chaos_state — succeed: any drops left over after the
  // first death tore the run down are absorbed by retransmits.
  w::wire_fault_injector::configure("link=*:drop:at=1,count=6");
  op2::profiling::enable(true);
  op2::profiling::reset();

  std::vector<double> q_victim, q_bystander;
  {
    svc::service_config scfg;
    scfg.workers = 2;
    svc::job_service s(scfg);
    for (const char* name : {"victim", "bystander"}) {
      svc::tenant_options t;
      t.name = name;
      s.register_tenant(t);
    }
    auto run_sharded_job = [](std::vector<double>& q_out) {
      auto sm = make_sim(generate_mesh(small_mesh()));
      run_with_backend(sm, kIters, "hpx_shard");
      const auto q = sm.p_q.data<double>();
      q_out.assign(q.begin(), q.end());
    };
    svc::job_options opts;
    opts.max_attempts = 2;
    opts.backoff_ms = 1;
    auto hv = s.submit(
        "victim", [&](const svc::job_context&) { run_sharded_job(q_victim); },
        opts);
    const auto rv = hv.get();
    EXPECT_EQ(rv.status, svc::job_status::completed);
    EXPECT_EQ(rv.attempts, 2);
    EXPECT_EQ(s.stats("victim").job_retries, 1u);
    // At least one link died (1 + retries drops of its frame) plus the
    // other link's first transmission; at most the full budget burned.
    EXPECT_GE(w::wire_fault_injector::fired_count(), 4);
    EXPECT_LE(w::wire_fault_injector::fired_count(), 6);

    // The bystander runs after the heal: its wire stack shares the
    // chaos_state, whose budget is spent — a clean reliable path.
    auto hb = s.submit("bystander", [&](const svc::job_context&) {
      run_sharded_job(q_bystander);
    });
    EXPECT_EQ(hb.get().status, svc::job_status::completed);
  }

  const auto& ref = seq_reference();
  ASSERT_EQ(q_victim.size(), ref.q.size());
  ASSERT_EQ(q_bystander.size(), ref.q.size());
  for (std::size_t i = 0; i < ref.q.size(); ++i) {
    ASSERT_EQ(q_victim[i], ref.q[i]) << "victim entry " << i;
    ASSERT_EQ(q_bystander[i], ref.q[i]) << "bystander entry " << i;
  }
}

// --- stress (also run under TSan by scripts/check.sh) ----------------

TEST(WireStress, ConcurrentLinksRaceThePumpUnderChaos) {
  // Two links published/consumed from two threads while the pump
  // retransmits through a lossy wire: the protocol's locking showdown.
  auto inner = std::make_shared<w::shm_wire>();
  auto chaos = std::make_shared<w::chaos_transport>(
      inner,
      w::parse_wire_fault_specs("link=*:drop:prob=0.05,seed=77,count=-1"));
  chaos->map_link(0, 0, 1);
  chaos->map_link(1, 1, 0);
  op2::reliable_options opts;
  opts.timeout_ms = 5;
  opts.retries = 10;
  op2::reliable_transport rel(chaos, 2, opts);
  rel.map_link(0, 0, 1);
  rel.map_link(1, 1, 0);

  constexpr int kRounds = 150;
  auto worker = [&](std::size_t link) {
    for (std::uint64_t round = 1; round <= kRounds; ++round) {
      const std::vector<double> payload = {double(link * 1000 + round),
                                           double(round)};
      rel.publish(link, round, as_bytes(payload));
      std::vector<double> got(2, 0.0);
      rel.consume(link, round,
                  {reinterpret_cast<std::byte*>(got.data()),
                   got.size() * sizeof(double)});
      ASSERT_EQ(got[0], double(link * 1000 + round));
      ASSERT_EQ(got[1], double(round));
    }
  };
  std::thread a(worker, 0);
  std::thread b(worker, 1);
  a.join();
  b.join();
  const auto s = rel.wire_stats();
  EXPECT_EQ(s.frames_sent, 2u * kRounds);
  EXPECT_EQ(s.dead_links, 0u);
}

TEST(WireStress, ExchangerRoundsWithConcurrentWaitersUnderChaos) {
  op2::init([] {
    auto cfg = op2::make_config("hpx_async", 4);
    cfg.wire_timeout_ms = 5;
    return cfg;
  }());
  w::wire_fault_injector::configure(
      "link=*:drop:prob=0.04,seed=5,count=-1;"
      "link=*:dup:prob=0.04,seed=6,count=-1");
  {
    ring_fixture f;
    halo_exchanger x(f.hp.get(), f.dats);
    constexpr int kRounds = 40;
    for (int round = 1; round <= kRounds; ++round) {
      f.stamp_owned(round);
      x.exchange();
      std::vector<hpxlite::future<void>> waiters;
      for (int s = 0; s < 3; ++s) {
        for (int wtr = 0; wtr < 2; ++wtr) {
          waiters.push_back(hpxlite::async([&x, s] { x.fence(s).wait(); }));
        }
      }
      for (auto& wtr : waiters) {
        wtr.get();
      }
      f.expect_halos(round);
    }
    EXPECT_EQ(x.rounds(), static_cast<std::uint64_t>(kRounds));
  }
  w::wire_fault_injector::clear();
  op2::finalize();
}

}  // namespace
