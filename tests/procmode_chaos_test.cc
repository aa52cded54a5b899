// Seeded procmode chaos battery: randomized kill -9 loops, SIGSTOP stall
// detection, respawn-budget exhaustion and replica-holder loss, all run
// against real jet_member OS processes and all required to keep the
// windowed job's results exactly-once.
//
// Every randomized timeline derives purely from its seed; a failing seed
// replays with
//   JETSIM_PROCMODE_SEED=<seed> ./procmode_chaos_test \
//       --gtest_filter='*SeededKillLoop*'

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "procmode/process_cluster.h"

namespace jet::procmode {
namespace {

#ifndef JETSIM_MEMBER_BIN
#error "JETSIM_MEMBER_BIN must point at the jet_member executable"
#endif

#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define JETSIM_SANITIZED 1
#endif
#endif
#if !defined(JETSIM_SANITIZED) && defined(__SANITIZE_ADDRESS__)
#define JETSIM_SANITIZED 1
#endif

// Sanitizer lanes fork/respawn the same scenarios at reduced iteration
// counts; the plain build drives the full ten-kill acceptance loop.
#ifdef JETSIM_SANITIZED
constexpr int kKillIterations = 3;
constexpr Nanos kKillLoopJobDuration = 2000 * kNanosPerMilli;
#else
constexpr int kKillIterations = 10;
constexpr Nanos kKillLoopJobDuration = 4000 * kNanosPerMilli;
#endif

std::string MakeWorkDir(const char* tag) {
  // Unix-domain socket paths are limited to ~108 bytes; keep it short.
  std::string tmpl = std::string("/tmp/jetchaos-") + tag + "-XXXXXX";
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
  options.job_params.duration = 2000 * kNanosPerMilli;
  options.job_params.key_count = 16;
  options.job_params.window_size = 50 * kNanosPerMilli;
  options.job_params.watermark_interval = 5 * kNanosPerMilli;
  options.snapshot_interval = 50 * kNanosPerMilli;
  return options;
}

// Probe without blocking: AwaitJobCompletion with an already-expired
// deadline returns OK only when the job has reached its terminal phase.
bool JobDone(ProcessCluster& cluster) {
  return cluster.AwaitJobCompletion(1).ok();
}

uint64_t SeedFromEnvOr(uint64_t fallback) {
  const char* env = std::getenv("JETSIM_PROCMODE_SEED");
  if (env == nullptr || env[0] == '\0') return fallback;
  return std::strtoull(env, nullptr, 10);
}

void SleepMillis(int64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// The acceptance loop: kill -9 a random live member, ten times in a row
// (random victim, random dwell, occasionally a second kill mid-recovery),
// and require the cluster back at full DOP after every kill and the final
// result exactly-once. The backoff ladder is tuned so ten deliberate kills
// stay inside the budget: real chaos here is the test harness, not a
// crashing binary, so the stability window is short and the budget large.
TEST(ProcChaos, SeededKillLoopHealsToFullDop) {
  const uint64_t seed = SeedFromEnvOr(0xC4A05u);
  SCOPED_TRACE("reproduce: JETSIM_PROCMODE_SEED=" + std::to_string(seed) +
               " ./procmode_chaos_test --gtest_filter='*SeededKillLoop*'");
  Rng rng(seed);

  auto options = BaseOptions("loop");
  options.job_params.duration = kKillLoopJobDuration;
  options.respawn.restart.backoff.retry_budget = 64;
  options.respawn.restart.backoff.initial_backoff = 10 * kNanosPerMilli;
  options.respawn.restart.backoff.max_backoff = 100 * kNanosPerMilli;
  options.respawn.restart.stability_period = 200 * kNanosPerMilli;
  {
    ProcessCluster cluster(options);
    ASSERT_TRUE(cluster.Start().ok());
    ASSERT_TRUE(cluster.SubmitWindowedJob().ok());
    ASSERT_TRUE(cluster.WaitForCommittedSnapshot(1, 60 * kNanosPerSecond).ok());

    int healed = 0;
    bool raced_with_completion = false;
    for (int i = 0; i < kKillIterations && !JobDone(cluster); ++i) {
      // Random phase: sometimes strike right after a commit, sometimes let
      // the job run a little first.
      SleepMillis(static_cast<int64_t>(rng.NextBounded(120)));
      const auto victim = static_cast<int32_t>(rng.NextBounded(3));
      if (!cluster.KillMember(victim).ok()) continue;  // already down

      // One kill in three lands during the recovery of the previous one:
      // a second victim goes down before the cluster is whole again,
      // exercising the restart-storm coalescing path.
      if (rng.NextBounded(3) == 0) {
        const auto second = static_cast<int32_t>(rng.NextBounded(3));
        if (second != victim) (void)cluster.KillMember(second);
      }

      // SIGKILL -> control EOF is asynchronous: wait until the coordinator
      // actually observed the death before waiting for the heal, or a
      // second kill could land on the same dying pid and count twice.
      const auto observe_deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (cluster.live_member_count() == 3 && !JobDone(cluster) &&
             std::chrono::steady_clock::now() < observe_deadline) {
        SleepMillis(1);
      }

      // Full membership must come back after every kill — unless the kill
      // raced with job completion, in which case there is nothing to heal.
      bool whole = false;
      const auto heal_deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (std::chrono::steady_clock::now() < heal_deadline) {
        ASSERT_TRUE(cluster.failure_message().empty())
            << "after kill " << healed + 1 << ": " << cluster.failure_message();
        if (cluster.WaitForFullMembership(50 * kNanosPerMilli).ok()) {
          whole = true;
          break;
        }
        if (JobDone(cluster)) break;
      }
      if (!whole) {
        ASSERT_TRUE(JobDone(cluster)) << "cluster never healed after kill "
                                      << healed + 1;
        raced_with_completion = true;
        break;
      }
      ++healed;
      ASSERT_EQ(cluster.live_member_count(), 3) << "after kill " << healed;
    }

    Status done = cluster.AwaitJobCompletion(180 * kNanosPerSecond);
    ASSERT_TRUE(done.ok()) << done.ToString();
    EXPECT_GE(healed, 1);
    EXPECT_GE(cluster.respawn_count(), healed);
    if (!raced_with_completion) {
      EXPECT_EQ(cluster.live_member_count(), 3);
      EXPECT_EQ(cluster.current_attempt_dop(), 3);
    }
    Status verdict = cluster.VerifyExactlyOnce();
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();
    cluster.Shutdown();
  }
  RemoveWorkDir(options.work_dir);
}

// A SIGSTOP'd member keeps its sockets open but stops heartbeating: the
// coordinator must move it suspect -> down on heartbeat silence alone,
// replace it, and finish exactly-once — no operator input.
TEST(ProcChaos, StalledMemberIsDetectedAndReplaced) {
  auto options = BaseOptions("stall");
  options.liveness.heartbeat_interval = 10 * kNanosPerMilli;
  options.liveness.suspect_after = 100 * kNanosPerMilli;
  options.liveness.dead_after = 400 * kNanosPerMilli;
  options.job_params.duration = 2000 * kNanosPerMilli;
  {
    ProcessCluster cluster(options);
    ASSERT_TRUE(cluster.Start().ok());
    ASSERT_TRUE(cluster.SubmitWindowedJob().ok());
    ASSERT_TRUE(cluster.WaitForCommittedSnapshot(1, 60 * kNanosPerSecond).ok());

    ASSERT_TRUE(cluster.StallMember(1).ok());

    // Suspicion first (heartbeat silence > suspect_after) ...
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (cluster.suspected_member_count() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      SleepMillis(5);
    }
    EXPECT_GE(cluster.suspected_member_count(), 1);

    // ... then down: the coordinator SIGKILLs the zombie and respawns it.
    while (cluster.respawn_count() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      SleepMillis(5);
    }
    EXPECT_GE(cluster.respawn_count(), 1);
    ASSERT_TRUE(cluster.WaitForFullMembership(60 * kNanosPerSecond).ok());

    Status done = cluster.AwaitJobCompletion(180 * kNanosPerSecond);
    ASSERT_TRUE(done.ok()) << done.ToString();
    EXPECT_EQ(cluster.live_member_count(), 3);
    Status verdict = cluster.VerifyExactlyOnce();
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();
    cluster.Shutdown();
  }
  RemoveWorkDir(options.work_dir);
}

// A transient stall must NOT escalate: suspect on silence, but when the
// member resumes beating before down_after the suspicion clears and the
// job finishes on the original processes — one attempt, zero respawns.
TEST(ProcChaos, StallSuspicionClearsAfterSigcont) {
  auto options = BaseOptions("gcstall");
  options.liveness.heartbeat_interval = 10 * kNanosPerMilli;
  options.liveness.suspect_after = 100 * kNanosPerMilli;
  options.liveness.dead_after = 20 * kNanosPerSecond;  // never reached here
  options.job_params.duration = 2000 * kNanosPerMilli;
  {
    ProcessCluster cluster(options);
    ASSERT_TRUE(cluster.Start().ok());
    ASSERT_TRUE(cluster.SubmitWindowedJob().ok());
    ASSERT_TRUE(cluster.WaitForCommittedSnapshot(1, 60 * kNanosPerSecond).ok());

    ASSERT_TRUE(cluster.StallMember(2).ok());
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (cluster.suspected_member_count() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      SleepMillis(5);
    }
    EXPECT_GE(cluster.suspected_member_count(), 1);

    ASSERT_TRUE(cluster.ResumeMember(2).ok());
    while (cluster.suspected_member_count() != 0 &&
           std::chrono::steady_clock::now() < deadline) {
      SleepMillis(5);
    }
    EXPECT_EQ(cluster.suspected_member_count(), 0);

    Status done = cluster.AwaitJobCompletion(180 * kNanosPerSecond);
    ASSERT_TRUE(done.ok()) << done.ToString();
    EXPECT_EQ(cluster.attempts(), 1);
    EXPECT_EQ(cluster.respawn_count(), 0);
    Status verdict = cluster.VerifyExactlyOnce();
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();
    cluster.Shutdown();
  }
  RemoveWorkDir(options.work_dir);
}

// When the retry budget runs dry the cluster must land in a clean terminal
// FAILED — error surfaced to every waiter, no hang, no half-respawned
// member. Budget of one: the first kill is healed, the second is fatal.
TEST(ProcChaos, RespawnBudgetExhaustionFailsCleanly) {
  auto options = BaseOptions("budget");
  options.respawn.restart.backoff.retry_budget = 1;
  options.respawn.restart.stability_period = 60 * kNanosPerSecond;  // never resets
  options.job_params.duration = 20 * kNanosPerSecond;  // outlives the test
  {
    ProcessCluster cluster(options);
    ASSERT_TRUE(cluster.Start().ok());
    ASSERT_TRUE(cluster.SubmitWindowedJob().ok());
    ASSERT_TRUE(cluster.WaitForCommittedSnapshot(1, 60 * kNanosPerSecond).ok());

    ASSERT_TRUE(cluster.KillMember(0).ok());
    // Wait for the death to be observed and the (only) respawn to fire
    // before judging the budget: SIGKILL -> EOF is asynchronous.
    const auto observe_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (cluster.respawn_count() == 0 &&
           std::chrono::steady_clock::now() < observe_deadline) {
      SleepMillis(2);
    }
    ASSERT_GE(cluster.respawn_count(), 1);
    ASSERT_TRUE(cluster.WaitForFullMembership(60 * kNanosPerSecond).ok());
    EXPECT_EQ(cluster.retry_budget_remaining(), 0);

    ASSERT_TRUE(cluster.KillMember(0).ok());
    const auto t0 = std::chrono::steady_clock::now();
    Status done = cluster.AwaitJobCompletion(60 * kNanosPerSecond);
    EXPECT_FALSE(done.ok());
    EXPECT_NE(done.ToString().find("budget exhausted"), std::string::npos)
        << done.ToString();
    EXPECT_NE(cluster.failure_message().find("budget exhausted"), std::string::npos)
        << cluster.failure_message();
    // Terminal, not a hang: failure within seconds, nowhere near the
    // 60 s wait ceiling or the 20 s job duration.
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(20));
    cluster.Shutdown();
  }
  RemoveWorkDir(options.work_dir);
}

// Killing the member that holds the replica of the last committed epoch
// must lose nothing: the coordinator's own copy still satisfies the >= 2
// process guarantee, recovery restores that epoch, and committed ids never
// move backwards.
TEST(ProcChaos, KillReplicaHolderLosesNoCommittedEpoch) {
  auto options = BaseOptions("replica");
  options.job_params.duration = 2000 * kNanosPerMilli;
  {
    ProcessCluster cluster(options);
    ASSERT_TRUE(cluster.Start().ok());
    ASSERT_TRUE(cluster.SubmitWindowedJob().ok());
    ASSERT_TRUE(cluster.WaitForCommittedSnapshot(2, 60 * kNanosPerSecond).ok());

    const int32_t holder = cluster.snapshot_replica_member();
    ASSERT_GE(holder, 0) << "no replica holder recorded for the last commit";
    const int64_t committed_before = cluster.last_committed_snapshot();
    ASSERT_GE(committed_before, 2);

    ASSERT_TRUE(cluster.KillMember(holder).ok());
    ASSERT_TRUE(cluster.WaitForFullMembership(60 * kNanosPerSecond).ok());

    Status done = cluster.AwaitJobCompletion(180 * kNanosPerSecond);
    ASSERT_TRUE(done.ok()) << done.ToString();
    EXPECT_GE(cluster.attempts(), 2);
    // The committed epoch survived the loss of its replica holder.
    EXPECT_GE(cluster.last_committed_snapshot(), committed_before);
    Status verdict = cluster.VerifyExactlyOnce();
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();
    cluster.Shutdown();
  }
  RemoveWorkDir(options.work_dir);
}

// A replica that detects a seal/entry-count mismatch must send an explicit
// kSnapshotReplicaReject so the coordinator aborts immediately — NOT sit
// silent until the ack-timeout watchdog fires. The watchdog here is set far
// beyond the test deadline, so only the explicit negative ack can produce
// the abort this test requires.
TEST(ProcChaos, ReplicaSealMismatchAbortsImmediately) {
  auto options = BaseOptions("reject");
  options.job_params.duration = 4000 * kNanosPerMilli;
  // If the reject path were still silent, the corrupted snapshot would hang
  // until this watchdog — minutes past every deadline below.
  options.snapshot_ack_timeout = 300 * kNanosPerSecond;
  {
    ProcessCluster cluster(options);
    ASSERT_TRUE(cluster.Start().ok());
    ASSERT_TRUE(cluster.SubmitWindowedJob().ok());
    ASSERT_TRUE(cluster.WaitForCommittedSnapshot(1, 60 * kNanosPerSecond).ok());

    const int64_t committed_before = cluster.last_committed_snapshot();
    cluster.CorruptNextReplicaSeal();

    // The explicit reject must land well inside the watchdog window.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (cluster.replica_reject_count() == 0 && !JobDone(cluster) &&
           std::chrono::steady_clock::now() < deadline) {
      SleepMillis(5);
    }
    EXPECT_GE(cluster.replica_reject_count(), 1)
        << "corrupted seal was not rejected before the deadline — the "
           "member stayed silent and only the watchdog could abort";

    // The aborted snapshot is not fatal: later snapshots commit and the
    // job still finishes exactly-once.
    ASSERT_TRUE(cluster
                    .WaitForCommittedSnapshot(committed_before + 1,
                                              60 * kNanosPerSecond)
                    .ok());
    Status done = cluster.AwaitJobCompletion(180 * kNanosPerSecond);
    ASSERT_TRUE(done.ok()) << done.ToString();
    Status verdict = cluster.VerifyExactlyOnce();
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();

    // The reject is exported as proc.replica_rejects.
    const auto dump = cluster.DiagnosticsDump();
    EXPECT_NE(dump.json.find("proc.replica_rejects"), std::string::npos);
    cluster.Shutdown();
  }
  RemoveWorkDir(options.work_dir);
}

}  // namespace
}  // namespace jet::procmode
