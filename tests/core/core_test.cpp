#include <gtest/gtest.h>

#include "base/error.h"
#include "core/registry.h"
#include "core/report.h"
#include "core/session.h"

namespace simulcast::core {
namespace {

TEST(Registry, AllNamesConstruct) {
  for (const std::string& name : protocol_names()) {
    const auto proto = make_protocol(name);
    ASSERT_NE(proto, nullptr) << name;
    EXPECT_EQ(proto->name(), name);
    EXPECT_GT(proto->rounds(4), 0u);
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW((void)make_protocol("paxos"), UsageError);
}

TEST(Session, HonestRunAnnouncesInputs) {
  for (const std::string& name : protocol_names()) {
    Session session(name, 4);
    const BitVec inputs = BitVec::from_string("1010");
    const SessionResult result = session.run(inputs, 7);
    EXPECT_TRUE(result.consistent) << name;
    EXPECT_TRUE(result.correct) << name;
    EXPECT_EQ(result.announced, inputs) << name;
    EXPECT_EQ(result.rounds, session.protocol().rounds(4)) << name;
    EXPECT_GT(result.messages(), 0u) << name;
    // Serial runs carry the full TrafficStats the batch path reports.
    EXPECT_GE(result.traffic.messages,
              result.traffic.point_to_point + result.traffic.broadcasts)
        << name;
    EXPECT_GE(result.traffic.wire_delivered_bytes, result.traffic.wire_bytes) << name;
  }
}

TEST(Session, AdversarialRunReportsDefaults) {
  Session session("gennaro", 5);
  const SessionResult result = session.run_with_adversary(
      BitVec::from_string("11111"), {2}, adversary::silent_factory(), 9);
  EXPECT_TRUE(result.consistent);
  EXPECT_TRUE(result.correct);
  EXPECT_EQ(result.announced.to_string(), "11011");
}

TEST(Session, DeterministicPerSeed) {
  Session session("chor-rabin", 4);
  const BitVec inputs = BitVec::from_string("0110");
  const auto r1 = session.run(inputs, 11);
  const auto r2 = session.run(inputs, 11);
  EXPECT_EQ(r1.announced, r2.announced);
  EXPECT_EQ(r1.messages(), r2.messages());
}

// The one rule behind "reproduced": a pass cell must pass, a violation
// cell must be flagged, info cells never decide, and a partial record
// never reproduces.
obs::ExperimentRecord record_of(std::vector<std::pair<bool, obs::Expect>> cells) {
  obs::ExperimentRecord rec;
  for (const auto& [pass, expected] : cells)
    rec.cells.push_back({"cell", obs::check(pass, ""), expected});
  return rec;
}

TEST(Rule, EachExpectationMetAndMissed) {
  EXPECT_TRUE(reproduced(record_of({{true, obs::Expect::pass}})));
  EXPECT_FALSE(reproduced(record_of({{false, obs::Expect::pass}})));
  EXPECT_TRUE(reproduced(record_of({{false, obs::Expect::violation}})));
  EXPECT_FALSE(reproduced(record_of({{true, obs::Expect::violation}})));
  EXPECT_TRUE(reproduced(record_of({{true, obs::Expect::pass}, {false, obs::Expect::violation}})));
  EXPECT_FALSE(reproduced(record_of({{true, obs::Expect::pass}, {true, obs::Expect::violation}})));
  EXPECT_FALSE(
      reproduced(record_of({{false, obs::Expect::pass}, {false, obs::Expect::violation}})));
}

TEST(Rule, InfoCellsNeverDecide) {
  for (const bool pass : {true, false}) {
    EXPECT_TRUE(reproduced(record_of({{pass, obs::Expect::info}})));
    EXPECT_TRUE(reproduced(record_of({{true, obs::Expect::pass}, {pass, obs::Expect::info}})));
    EXPECT_FALSE(reproduced(record_of({{false, obs::Expect::pass}, {pass, obs::Expect::info}})));
  }
  EXPECT_TRUE(reproduced(record_of({})));
}

TEST(Rule, PartialRecordNeverReproduces) {
  for (obs::ExperimentRecord rec :
       {record_of({}), record_of({{true, obs::Expect::pass}, {false, obs::Expect::violation}}),
        record_of({{true, obs::Expect::info}})}) {
    ASSERT_TRUE(reproduced(rec));
    rec.partial = true;
    EXPECT_FALSE(reproduced(rec));
  }
}

// A quarantined slot is zero-filled and handed to the testers like a
// drained one, so one quarantined repetition blocks the verdict however
// the cells came out.
TEST(Rule, QuarantinedRecordNeverReproduces) {
  for (obs::ExperimentRecord rec :
       {record_of({}), record_of({{true, obs::Expect::pass}, {false, obs::Expect::violation}}),
        record_of({{true, obs::Expect::info}})}) {
    ASSERT_TRUE(reproduced(rec));
    rec.perf.quarantine.push_back({13, 0xfeed, "timeout: run_execution: watchdog deadline expired"});
    EXPECT_FALSE(reproduced(rec));
  }
}

TEST(Report, TableRendersAligned) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "10000"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("|-------|-------|"), std::string::npos);
}

TEST(Report, TableValidation) {
  EXPECT_THROW(Table({}), UsageError);
  Table t({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), UsageError);
}

TEST(Report, Formatters) {
  EXPECT_EQ(fmt(0.25), "0.2500");
  EXPECT_EQ(fmt(1.0 / 3.0, 2), "0.33");
  EXPECT_EQ(verdict_str(true), "PASS");
  EXPECT_EQ(verdict_str(false), "FAIL");
}

TEST(Report, DescribeContainsKeyNumbers) {
  testers::CrVerdict cr;
  cr.max_gap = 0.25;
  cr.radius = 0.01;
  cr.independent = false;
  cr.worst = {2, "parity==0", 0.25, 0.5, 0.5, 0.0};
  const std::string s = describe(cr);
  EXPECT_NE(s.find("VIOLATED"), std::string::npos);
  EXPECT_NE(s.find("parity==0"), std::string::npos);
  EXPECT_NE(s.find("0.2500"), std::string::npos);
}

}  // namespace
}  // namespace simulcast::core
