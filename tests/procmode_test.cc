// Cross-process cluster battery: a ProcessCluster coordinator spawning real
// jet_member OS processes wired over Unix-domain sockets, including the
// kill -9 chaos test demanded by §4.4 — recovery from the last committed
// snapshot with exactly-once results.
//
// The member binary's path is injected at compile time (JETSIM_MEMBER_BIN)
// so the test runs from any build directory.

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/exporters.h"
#include "procmode/process_cluster.h"

namespace jet::procmode {
namespace {

#ifndef JETSIM_MEMBER_BIN
#error "JETSIM_MEMBER_BIN must point at the jet_member executable"
#endif

std::string MakeWorkDir(const char* tag) {
  // Unix-domain socket paths are limited to ~108 bytes; keep it short.
  std::string tmpl = std::string("/tmp/jetproc-") + tag + "-XXXXXX";
  char* dir = ::mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return tmpl;
}

void RemoveWorkDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

ProcessCluster::Options BaseOptions(const char* tag) {
  ProcessCluster::Options options;
  options.member_binary = JETSIM_MEMBER_BIN;
  options.work_dir = MakeWorkDir(tag);
  options.initial_members = 3;
  options.threads_per_member = 1;
  options.job_params.events_per_second = 20'000;
  options.job_params.duration = 600 * kNanosPerMilli;
  options.job_params.key_count = 16;
  options.job_params.window_size = 50 * kNanosPerMilli;
  options.job_params.watermark_interval = 5 * kNanosPerMilli;
  options.snapshot_interval = 50 * kNanosPerMilli;
  return options;
}

// The tentpole's baseline claim: a JetCluster-equivalent job runs as three
// real OS processes exchanging serialized frames over sockets, and the
// result is exactly the in-process result.
TEST(ProcMode, ThreeProcessWindowedJob) {
  auto options = BaseOptions("happy");
  {
    ProcessCluster cluster(options);
    ASSERT_TRUE(cluster.Start().ok());
    EXPECT_EQ(cluster.live_member_count(), 3);
    ASSERT_TRUE(cluster.SubmitWindowedJob().ok());
    ASSERT_TRUE(cluster.AwaitJobCompletion(120 * kNanosPerSecond).ok());
    EXPECT_EQ(cluster.attempts(), 1);
    EXPECT_TRUE(cluster.VerifyExactlyOnce().ok())
        << cluster.VerifyExactlyOnce().ToString();
    cluster.Shutdown();
    // Shutdown reaped every member: none may still count as live.
    EXPECT_EQ(cluster.live_member_count(), 0);
    std::vector<obs::PrometheusSample> samples;
    ASSERT_TRUE(obs::ParsePrometheusText(cluster.DiagnosticsDump().prometheus, &samples));
    std::map<std::string, double> values;
    for (const auto& sample : samples) values[sample.name] = sample.value;
    ASSERT_EQ(values.count("jet_proc_live_members"), 1u);
    EXPECT_EQ(values["jet_proc_live_members"], 0);
  }
  RemoveWorkDir(options.work_dir);
}

// Snapshots commit while the job runs: state entries stream over the
// control sockets into the coordinator's store and the FIFO-ordered acks
// gate each commit.
TEST(ProcMode, SnapshotsCommitAcrossProcesses) {
  auto options = BaseOptions("snap");
  options.job_params.duration = 900 * kNanosPerMilli;
  {
    ProcessCluster cluster(options);
    ASSERT_TRUE(cluster.Start().ok());
    ASSERT_TRUE(cluster.SubmitWindowedJob().ok());
    Status committed = cluster.WaitForCommittedSnapshot(2, 60 * kNanosPerSecond);
    EXPECT_TRUE(committed.ok()) << committed.ToString();
    ASSERT_TRUE(cluster.AwaitJobCompletion(120 * kNanosPerSecond).ok());
    EXPECT_GE(cluster.last_committed_snapshot(), 2);
    EXPECT_TRUE(cluster.VerifyExactlyOnce().ok())
        << cluster.VerifyExactlyOnce().ToString();
    // The coordinator exports the snapshot metrics under the names the
    // in-process runtimes use.
    std::vector<obs::PrometheusSample> samples;
    ASSERT_TRUE(obs::ParsePrometheusText(cluster.DiagnosticsDump().prometheus, &samples));
    std::map<std::string, double> values;
    for (const auto& sample : samples) values[sample.name] = sample.value;
    ASSERT_EQ(values.count("jet_job_snapshots_taken"), 1u);
    ASSERT_EQ(values.count("jet_job_last_committed_snapshot"), 1u);
    ASSERT_EQ(values.count("jet_snapshot_aborted"), 1u);
    EXPECT_GE(values["jet_job_snapshots_taken"], 2);
    EXPECT_EQ(values["jet_job_last_committed_snapshot"],
              static_cast<double>(cluster.last_committed_snapshot()));
    EXPECT_EQ(values["jet_snapshot_aborted"], 0);
    EXPECT_NE(cluster.DiagnosticsDump().json.find("\"job.snapshots_taken\""),
              std::string::npos);
    cluster.Shutdown();
  }
  RemoveWorkDir(options.work_dir);
}

// The chaos test: kill -9 one member mid-job. The coordinator must detect
// the death (control-socket EOF), stop the attempt on the survivors,
// respawn the dead member under its backoff policy, restore from the last
// committed snapshot at full DOP, and finish with exactly-once results —
// no lost windows, no conflicting duplicates, no permanent degradation.
TEST(ProcMode, Kill9MemberRecoversFromLastCommittedSnapshot) {
  auto options = BaseOptions("kill9");
  options.job_params.duration = 1500 * kNanosPerMilli;
  {
    ProcessCluster cluster(options);
    ASSERT_TRUE(cluster.Start().ok());
    ASSERT_TRUE(cluster.SubmitWindowedJob().ok());

    // Let at least one snapshot commit so there is real state to restore.
    Status committed = cluster.WaitForCommittedSnapshot(1, 60 * kNanosPerSecond);
    ASSERT_TRUE(committed.ok()) << committed.ToString();
    ASSERT_TRUE(cluster.KillMember(1).ok());

    Status done = cluster.AwaitJobCompletion(180 * kNanosPerSecond);
    ASSERT_TRUE(done.ok()) << done.ToString();
    EXPECT_GE(cluster.attempts(), 2);
    // Self-healing: the replacement process rejoined and the final attempt
    // ran at full parallelism again.
    EXPECT_EQ(cluster.live_member_count(), 3);
    EXPECT_GE(cluster.respawn_count(), 1);
    EXPECT_EQ(cluster.current_attempt_dop(), 3);
    Status verdict = cluster.VerifyExactlyOnce();
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();

    // The healing shows up in the diagnostics dump under both renderings.
    ProcessCluster::Diagnostics diag = cluster.DiagnosticsDump();
    EXPECT_NE(diag.prometheus.find("proc_respawns"), std::string::npos);
    EXPECT_NE(diag.json.find("proc.respawns"), std::string::npos);
    cluster.Shutdown();
  }
  RemoveWorkDir(options.work_dir);
}

// With respawn disabled the PR-7 degraded-mode behaviour is preserved: the
// survivors finish the job at reduced DOP and the cluster stays at two
// members. Operators can opt out of self-healing.
TEST(ProcMode, DegradedModeKill9RunsOnSurvivors) {
  auto options = BaseOptions("degraded");
  options.respawn.enabled = false;
  options.job_params.duration = 1500 * kNanosPerMilli;
  {
    ProcessCluster cluster(options);
    ASSERT_TRUE(cluster.Start().ok());
    ASSERT_TRUE(cluster.SubmitWindowedJob().ok());

    Status committed = cluster.WaitForCommittedSnapshot(1, 60 * kNanosPerSecond);
    ASSERT_TRUE(committed.ok()) << committed.ToString();
    ASSERT_TRUE(cluster.KillMember(1).ok());

    Status done = cluster.AwaitJobCompletion(180 * kNanosPerSecond);
    ASSERT_TRUE(done.ok()) << done.ToString();
    EXPECT_GE(cluster.attempts(), 2);
    EXPECT_EQ(cluster.live_member_count(), 2);
    EXPECT_EQ(cluster.respawn_count(), 0);
    Status verdict = cluster.VerifyExactlyOnce();
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();
    cluster.Shutdown();
  }
  RemoveWorkDir(options.work_dir);
}

// Shutdown() reaps every member outside the coordinator lock, after which a
// member's pid may belong to an unrelated process. Chaos signals must be
// refused from then on, not sent to a possibly recycled pid.
TEST(ProcMode, SignalsAfterShutdownAreRefused) {
  auto options = BaseOptions("sigdown");
  options.initial_members = 2;
  {
    ProcessCluster cluster(options);
    ASSERT_TRUE(cluster.Start().ok());
    cluster.Shutdown();
    for (int32_t member = 0; member < 2; ++member) {
      EXPECT_EQ(cluster.KillMember(member).code(), StatusCode::kFailedPrecondition);
      EXPECT_EQ(cluster.StallMember(member).code(), StatusCode::kFailedPrecondition);
      EXPECT_EQ(cluster.ResumeMember(member).code(), StatusCode::kFailedPrecondition);
    }
  }
  RemoveWorkDir(options.work_dir);
}

// A member that dies before it ever says Hello must fail Start() fast via
// the control-EOF / reap-scan path — not stall until bring_up_timeout.
// /bin/false exits immediately without touching the control socket.
TEST(ProcMode, MemberDeathDuringBringUpFailsFast) {
  auto options = BaseOptions("bringup");
  options.member_binary = "/bin/false";
  options.respawn.enabled = false;
  options.bring_up_timeout = 30 * kNanosPerSecond;
  {
    ProcessCluster cluster(options);
    const auto t0 = std::chrono::steady_clock::now();
    Status status = cluster.Start();
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("bring-up"), std::string::npos)
        << status.ToString();
    // Well under the 30 s bring-up timeout: the death itself is the signal.
    EXPECT_LT(elapsed, std::chrono::seconds(10));
    cluster.Shutdown();
  }
  RemoveWorkDir(options.work_dir);
}

}  // namespace
}  // namespace jet::procmode
