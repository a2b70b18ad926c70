// Termination detection: exact dyadic weights, the weighted-message
// protocol, and a randomized cross-check against Dijkstra-Scholten on the
// same simulated message traces.
#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "common/rng.hpp"
#include "term/dijkstra_scholten.hpp"
#include "term/weight.hpp"
#include "term/weighted.hpp"

namespace hyperfile {
namespace {

TEST(Weight, OneAndZero) {
  EXPECT_TRUE(Weight::one().is_one());
  EXPECT_FALSE(Weight::one().is_zero());
  EXPECT_TRUE(Weight::zero().is_zero());
  EXPECT_FALSE(Weight::zero().is_one());
  EXPECT_TRUE(Weight().is_zero());
}

TEST(Weight, SplitConserves) {
  Weight w = Weight::one();
  Weight half = w.split();
  EXPECT_FALSE(w.is_zero());
  EXPECT_FALSE(half.is_zero());
  EXPECT_FALSE(w.is_one());
  w.add(half);
  EXPECT_TRUE(w.is_one());
}

TEST(Weight, ManySplitsStillRecombineToOne) {
  Weight master = Weight::one();
  std::vector<Weight> pieces;
  for (int i = 0; i < 1000; ++i) pieces.push_back(master.split());
  for (auto& p : pieces) master.add(p.take_all());
  EXPECT_TRUE(master.is_one());
}

TEST(Weight, SplitOfTinyPieceWorks) {
  Weight w = Weight::one();
  // Repeatedly split and discard the kept side into a bank, splitting the
  // ever-smaller remainder.
  Weight bank;
  for (int i = 0; i < 200; ++i) bank.add(w.split());
  bank.add(w.take_all());
  EXPECT_TRUE(bank.is_one());
}

TEST(Weight, ExponentsRoundTrip) {
  Weight w = Weight::one();
  Weight a = w.split();
  Weight b = w.split();
  for (const Weight* piece : {&w, &a, &b}) {
    Weight back = Weight::from_exponents(piece->exponents());
    EXPECT_EQ(back, *piece);
  }
}

TEST(Weight, AddMergesEqualUnits) {
  // 1/2 + 1/4 + 1/4 == 3/4; adding another 1/4 makes 1 exactly.
  Weight w = Weight::from_exponents({1});       // 1/2
  w.add(Weight::from_exponents({2}));           // + 1/4
  w.add(Weight::from_exponents({2}));           // + 1/4
  EXPECT_EQ(w, Weight::from_exponents({0}));    // == 1 after carries...
  EXPECT_TRUE(w.is_one());
}

TEST(Weight, FromExponentsMergesDuplicates) {
  // {2, 2} = 1/4 + 1/4 = 1/2 = {1}.
  Weight w = Weight::from_exponents({2, 2});
  EXPECT_EQ(w, Weight::from_exponents({1}));
  // Canonical output: each exponent at most once.
  auto exps = w.exponents();
  ASSERT_EQ(exps.size(), 1u);
  EXPECT_EQ(exps[0], 1u);
}

TEST(Weight, ApproxMatches) {
  Weight w = Weight::from_exponents({1, 3});  // 1/2 + 1/8
  EXPECT_NEAR(w.approx(), 0.625, 1e-12);
}

TEST(Weight, OverflowPastOneThrows) {
  Weight w = Weight::one();
  EXPECT_THROW(w.add(Weight::one()), std::logic_error);
}

TEST(Weight, SplitZeroThrows) {
  Weight w;
  EXPECT_THROW(w.split(), std::logic_error);
}

TEST(WeightedProtocol, SimpleRoundTrip) {
  WeightedTerminationOriginator origin;
  EXPECT_TRUE(origin.all_weight_home());

  Weight msg = origin.borrow();
  EXPECT_FALSE(origin.all_weight_home());

  WeightedTerminationParticipant site;
  site.receive(std::move(msg));
  EXPECT_TRUE(site.holding());

  Weight forwarded = site.borrow();  // site engages a third party
  WeightedTerminationParticipant site2;
  site2.receive(std::move(forwarded));

  origin.repay(site.release_all());
  EXPECT_FALSE(origin.all_weight_home());  // site2 still holds weight
  origin.repay(site2.release_all());
  EXPECT_TRUE(origin.all_weight_home());
}

// --- Randomized protocol simulation, cross-checked against D-S ----------
//
// A synthetic "computation": messages carry work between sites; each site,
// upon receiving a message, sends 0..3 further messages (decreasing
// probability over time so the computation dies out). Both detectors
// observe the same trace; they must never report termination while any
// message is in flight or any site is active, and both must report it at
// the end.

struct TraceMessage {
  SiteId from;
  SiteId to;
  Weight weight;
};

TEST(WeightedProtocol, RandomizedNeverFalseNeverMissed) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    constexpr SiteId kSites = 5;
    constexpr SiteId kOrigin = 0;

    WeightedTerminationOriginator origin;
    std::vector<WeightedTerminationParticipant> parts(kSites);
    std::vector<DijkstraScholtenNode> ds;
    for (SiteId s = 0; s < kSites; ++s) {
      ds.emplace_back(s, s == kOrigin);
    }

    std::deque<TraceMessage> in_flight;
    std::map<std::pair<SiteId, SiteId>, int> ds_acks;  // (to, from) pending acks

    // Origin sends initial burst.
    const int initial = 1 + static_cast<int>(rng.next_below(3));
    ds[kOrigin].set_idle(false);
    for (int i = 0; i < initial; ++i) {
      const SiteId to = 1 + static_cast<SiteId>(rng.next_below(kSites - 1));
      in_flight.push_back({kOrigin, to, origin.borrow()});
      ds[kOrigin].on_send();
    }
    ds[kOrigin].set_idle(true);

    int budget = 200;  // total extra messages the computation may spawn
    while (!in_flight.empty()) {
      // Both detectors must agree: not terminated while messages fly.
      EXPECT_FALSE(origin.all_weight_home());
      EXPECT_FALSE(ds[kOrigin].terminated());

      const std::size_t pick = rng.next_below(in_flight.size());
      TraceMessage m = std::move(in_flight[pick]);
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));

      // --- weighted side ---
      auto& part = parts[m.to];
      const bool to_origin_weight = (m.to == kOrigin);
      if (to_origin_weight) {
        origin.repay(std::move(m.weight));
      } else {
        part.receive(std::move(m.weight));
      }

      // --- D-S side ---
      const bool engaged = ds[m.to].on_message(m.from);
      if (!engaged) ++ds_acks[{m.from, m.to}];  // immediate ack owed
      ds[m.to].set_idle(false);

      // The site does some work: maybe sends more messages.
      const int fanout =
          budget > 0 ? static_cast<int>(rng.next_below(3)) : 0;
      for (int i = 0; i < fanout && budget > 0; --budget, ++i) {
        const SiteId to = static_cast<SiteId>(rng.next_below(kSites));
        Weight w = to_origin_weight ? origin.borrow() : part.borrow();
        in_flight.push_back({m.to, to, std::move(w)});
        ds[m.to].on_send();
      }
      ds[m.to].set_idle(true);

      // Deliver owed immediate acks.
      for (auto it = ds_acks.begin(); it != ds_acks.end();) {
        while (it->second > 0) {
          ds[it->first.first].on_ack();
          --it->second;
        }
        it = ds_acks.erase(it);
      }

      // Weighted: site done with this message -> return weight.
      if (!to_origin_weight && part.holding()) {
        origin.repay(part.release_all());
      }
      // D-S: detach any node that is idle with zero deficit.
      bool progress = true;
      while (progress) {
        progress = false;
        for (SiteId s = 0; s < kSites; ++s) {
          if (ds[s].ready_to_detach()) {
            const SiteId parent = *ds[s].parent();
            ds[s].detach();
            ds[parent].on_ack();
            progress = true;
          }
        }
      }
    }

    EXPECT_TRUE(origin.all_weight_home()) << "seed " << seed;
    EXPECT_TRUE(ds[kOrigin].terminated()) << "seed " << seed;
  }
}

TEST(WeightedProtocol, ReplayedRepayViolatesConservation) {
  WeightedTerminationOriginator origin;
  Weight w = origin.borrow();
  const auto bits = w.exponents();
  origin.repay(Weight::from_exponents(bits));
  EXPECT_TRUE(origin.all_weight_home());
  // The same weight bits arriving again (a wire-duplicated ResultMessage)
  // must be suppressed *before* the repay: crediting them is not merely
  // wrong, it is detectably impossible — the exact dyadic representation
  // overflows past one. This is why SiteServer dedups by msg_seq first.
  EXPECT_THROW(origin.repay(Weight::from_exponents(bits)), std::logic_error);
}

// Conservation ledger under loss and replay: at every step of a randomized
// computation, originator weight + participant weight + in-flight weight +
// weight lost to the network sums to exactly one; and while anything is
// lost, the originator must never see all weight home (a partial answer can
// only come from the TTL path, never from false termination).
TEST(WeightedProtocol, ConservationHoldsUnderLossAndReplay) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Rng rng(seed);
    constexpr int kParts = 4;
    WeightedTerminationOriginator origin;
    std::vector<WeightedTerminationParticipant> parts(kParts);
    std::deque<std::pair<int, Weight>> in_flight;  // (dest, carried weight)
    Weight lost;

    auto check = [&] {
      Weight total;
      total.add(origin.held());
      for (const auto& p : parts) total.add(p.held());
      for (const auto& f : in_flight) total.add(f.second);
      total.add(lost);
      ASSERT_TRUE(total.is_one()) << "seed " << seed;
      if (!lost.is_zero()) {
        EXPECT_FALSE(origin.all_weight_home()) << "seed " << seed;
      }
    };

    const int burst = 2 + static_cast<int>(rng.next_below(2));
    for (int i = 0; i < burst; ++i) {
      in_flight.emplace_back(static_cast<int>(rng.next_below(kParts)),
                             origin.borrow());
    }
    check();

    int budget = 150;
    while (!in_flight.empty()) {
      const std::size_t pick = rng.next_below(in_flight.size());
      auto [to, w] = std::move(in_flight[pick]);
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));

      if (rng.next_bool(0.15)) {
        // The network ate the frame; its weight is gone for good.
        lost.add(w.take_all());
      } else {
        parts[to].receive(w.take_all());
        if (rng.next_bool(0.25)) {
          // Replayed delivery: the receiver's msg_seq dedup discards the
          // copy, so the duplicate credits nothing — the ledger is
          // untouched (crediting it would push the total past one).
        }
        const int fanout =
            budget > 0 ? static_cast<int>(rng.next_below(3)) : 0;
        for (int i = 0; i < fanout && budget > 0; --budget, ++i) {
          in_flight.emplace_back(static_cast<int>(rng.next_below(kParts)),
                                 parts[to].borrow());
        }
        if (parts[to].holding() && rng.next_bool(0.8)) {
          // Drain: the result message carries all held weight home — and it
          // too can be lost in flight.
          Weight back = parts[to].release_all();
          if (rng.next_bool(0.1)) {
            lost.add(back.take_all());
          } else {
            origin.repay(back.take_all());
          }
        }
      }
      check();
    }
    for (auto& p : parts) {
      if (p.holding()) origin.repay(p.release_all());
    }
    check();
    // Settled: weight is home iff the network lost nothing.
    EXPECT_EQ(origin.all_weight_home(), lost.is_zero()) << "seed " << seed;
  }
}

TEST(DijkstraScholten, BasicTree) {
  DijkstraScholtenNode root(0, true);
  DijkstraScholtenNode child(1);

  root.set_idle(false);
  root.on_send();
  root.set_idle(true);
  EXPECT_FALSE(root.terminated());

  EXPECT_TRUE(child.on_message(0));  // engaging message
  child.set_idle(false);
  child.set_idle(true);
  ASSERT_TRUE(child.ready_to_detach());
  EXPECT_EQ(*child.parent(), 0u);
  child.detach();
  root.on_ack();
  EXPECT_TRUE(root.terminated());
}

TEST(DijkstraScholten, NonEngagingMessageAckedImmediately) {
  DijkstraScholtenNode node(1);
  EXPECT_TRUE(node.on_message(0));
  EXPECT_FALSE(node.on_message(2));  // already engaged: caller acks now
  EXPECT_EQ(*node.parent(), 0u);
}

TEST(DijkstraScholten, AckAtZeroDeficitIsIgnored) {
  // Acks arrive off the network: a stray one at zero deficit must neither
  // wrap the deficit (the next send would then read as acknowledged) nor
  // settle anything.
  DijkstraScholtenNode node(1);
  EXPECT_TRUE(node.on_message(0));
  node.on_ack();
  EXPECT_EQ(node.deficit(), 0u);
  node.on_send();
  EXPECT_FALSE(node.ready_to_detach());  // the real ack is still owed
  node.on_ack();
  EXPECT_TRUE(node.ready_to_detach());

  DijkstraScholtenNode root(0, true);
  root.on_ack();
  EXPECT_EQ(root.deficit(), 0u);
  root.on_send();
  EXPECT_FALSE(root.terminated());
}

}  // namespace
}  // namespace hyperfile
