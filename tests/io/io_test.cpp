#include "gapsched/io/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gapsched/gen/generators.hpp"
#include "gapsched/io/csv.hpp"
#include "gapsched/io/json.hpp"
#include "../support/temp_path.hpp"

namespace gapsched {
namespace {

TEST(Serialize, InstanceRoundTrip) {
  Instance inst;
  inst.processors = 3;
  inst.jobs.push_back(Job{TimeSet({{0, 5}})});
  inst.jobs.push_back(Job{TimeSet({{2, 3}, {10, 12}})});
  const std::string text = instance_to_string(inst);
  std::string error;
  auto parsed = instance_from_string(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->processors, 3);
  ASSERT_EQ(parsed->n(), 2u);
  EXPECT_EQ(parsed->jobs[0].allowed, inst.jobs[0].allowed);
  EXPECT_EQ(parsed->jobs[1].allowed, inst.jobs[1].allowed);
}

TEST(Serialize, RandomInstanceRoundTrips) {
  Prng rng(515);
  for (int it = 0; it < 10; ++it) {
    Instance inst = gen_multi_interval(rng, 6, 20, 3, 2, 2);
    auto parsed = instance_from_string(instance_to_string(inst));
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->n(), inst.n());
    for (std::size_t j = 0; j < inst.n(); ++j) {
      EXPECT_EQ(parsed->jobs[j].allowed, inst.jobs[j].allowed);
    }
  }
}

TEST(Serialize, RejectsGarbage) {
  std::string error;
  EXPECT_FALSE(instance_from_string("not an instance", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(instance_from_string("gapsched-instance v1\nprocessors 0\n",
                                    &error)
                   .has_value());
  EXPECT_FALSE(
      instance_from_string(
          "gapsched-instance v1\nprocessors 1\njobs 1\njob 1 5 3\n", &error)
          .has_value());  // empty interval
}

// Declared counts size allocations before any job is read: a count past
// io::kMaxJobs, or more intervals than the line can hold, must be a
// diagnostic at once, never std::bad_alloc.
TEST(Serialize, HostileCountsAreRejectedWithoutAllocating) {
  std::string error;
  EXPECT_FALSE(instance_from_string("gapsched-instance v1\nprocessors 1\n"
                                    "jobs 1000000000000000\njob 1 0 3\n",
                                    &error)
                   .has_value());
  EXPECT_NE(error.find("bad jobs line"), std::string::npos) << error;
  EXPECT_FALSE(instance_from_string("gapsched-instance v1\nprocessors 1\n"
                                    "jobs 1\njob 100000000000000 0 3\n",
                                    &error)
                   .has_value());
  EXPECT_NE(error.find("bad interval"), std::string::npos) << error;
  std::istringstream schedule(
      "gapsched-schedule v1\njobs 1000000000000000\nslot 0 1 -\n");
  EXPECT_FALSE(read_schedule(schedule, &error).has_value());
  EXPECT_NE(error.find("bad jobs line"), std::string::npos) << error;
}

// Past io::kMaxTime the solvers' sums of time differences and margins
// could overflow int64: such a job line is a diagnostic.
TEST(Serialize, JobTimesOutsideKMaxTimeAreRejected) {
  const std::string max = std::to_string(io::kMaxTime);
  const std::string past = std::to_string(io::kMaxTime + 1);
  for (const std::string& job : std::vector<std::string>{
           "job 1 9223372036854775800 9223372036854775806",
           "job 1 -9223372036854775807 0", "job 1 0 " + past,
           "job 2 0 1 " + past + " " + past, "job 1 -" + past + " 0"}) {
    std::string error;
    EXPECT_FALSE(instance_from_string(
                     "gapsched-instance v1\nprocessors 1\njobs 2\n"
                     "job 1 0 3\n" + job + "\n",
                     &error)
                     .has_value())
        << job;
    EXPECT_EQ(error, std::string(io::kTimeRangeError) + " in job line: " + job);
  }
  std::string error;
  const auto edge = instance_from_string(
      "gapsched-instance v1\nprocessors 1\njobs 2\njob 1 -" + max + " -" +
          max + "\njob 2 0 2 4 " + max + "\n",
      &error);
  ASSERT_TRUE(edge.has_value()) << error;
  EXPECT_EQ(edge->jobs[0].allowed,
            TimeSet::window(-io::kMaxTime, -io::kMaxTime));
  EXPECT_EQ(edge->jobs[1].allowed, TimeSet({{0, 2}, {4, io::kMaxTime}}));
}

TEST(Serialize, CountsUpToTheLimitAreAccepted) {
  std::ostringstream text;
  text << "gapsched-schedule v1\njobs " << io::kMaxJobs << "\nslot "
       << io::kMaxJobs - 1 << " 7 -\n";
  std::istringstream is(text.str());
  std::string error;
  const auto parsed = read_schedule(is, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->size(), io::kMaxJobs);
  EXPECT_EQ(parsed->at(io::kMaxJobs - 1)->time, 7);
  std::istringstream over("gapsched-schedule v1\njobs " +
                          std::to_string(io::kMaxJobs + 1) + "\n");
  EXPECT_FALSE(read_schedule(over, &error).has_value());
}

TEST(Serialize, CommentsAndBlanksIgnored) {
  const std::string text =
      "# a comment\n\ngapsched-instance v1\n"
      "processors 1  # inline\n\njobs 1\njob 1 0 4\n";
  auto parsed = instance_from_string(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->jobs[0].allowed, TimeSet::window(0, 4));
}

TEST(Serialize, ScheduleRoundTrip) {
  Schedule s(3);
  s.place(0, 7, 1);
  s.place(2, 9);
  std::ostringstream os;
  write_schedule(os, s);
  std::istringstream is(os.str());
  auto parsed = read_schedule(is);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->at(0)->time, 7);
  EXPECT_EQ(parsed->at(0)->processor, 1);
  EXPECT_FALSE(parsed->is_scheduled(1));
  EXPECT_EQ(parsed->at(2)->processor, Placement::kUnassigned);
}

TEST(Csv, WritesFile) {
  Table t({"x", "y"});
  t.row().add(1).add(2);
  const std::string path = testing::temp_path("csv_test", ".csv");
  ASSERT_TRUE(write_csv(path, t));
  std::ifstream is(path);
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "x,y");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gapsched
