// Process-mode demo: the §4.4 failover story with real OS processes.
//
// A ProcessCluster coordinator forks three jet_member processes, wires
// them over Unix-domain sockets (control to the coordinator, data
// member-to-member), runs the exactly-once windowed-count job, waits for
// a snapshot to commit, then `kill -9`s member 1 mid-job. The coordinator
// must detect the death from the control socket's EOF, stop the attempt
// on the survivors, respawn the dead member under its backoff budget,
// restore from the last committed snapshot at full parallelism and finish
// with exactly-once results.
//
// Exits non-zero unless the verification passed — CI runs this as the
// process-mode smoke and greps the printed diagnostics dump for the
// proc.* and job.* self-healing gauges. Pass --no-kill for the happy path
// only.
//
// The jet_member binary path is baked in at compile time
// (JETSIM_MEMBER_BIN) so the demo runs from any build directory.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "procmode/process_cluster.h"

#ifndef JETSIM_MEMBER_BIN
#error "JETSIM_MEMBER_BIN must point at the jet_member executable"
#endif

namespace {

int Fail(const jet::Status& status, const char* what) {
  std::fprintf(stderr, "FAIL (%s): %s\n", what, status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool kill_member = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-kill") == 0) kill_member = false;
  }

  using jet::procmode::ProcessCluster;
  ProcessCluster::Options options;
  options.member_binary = JETSIM_MEMBER_BIN;
  // Unix-domain socket paths are limited to ~108 bytes; keep it short.
  std::string work_dir = "/tmp/jetproc-demo-XXXXXX";
  if (::mkdtemp(work_dir.data()) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  options.work_dir = work_dir;
  options.initial_members = 3;
  options.threads_per_member = 1;
  options.job_params.events_per_second = 20'000;
  options.job_params.duration = kill_member ? 1'500 * jet::kNanosPerMilli
                                            : 600 * jet::kNanosPerMilli;
  options.snapshot_interval = 50 * jet::kNanosPerMilli;

  ProcessCluster cluster(options);
  if (jet::Status s = cluster.Start(); !s.ok()) return Fail(s, "start");
  std::printf("spawned %d member processes under %s\n",
              cluster.live_member_count(), work_dir.c_str());

  if (jet::Status s = cluster.SubmitWindowedJob(); !s.ok()) {
    return Fail(s, "submit");
  }

  if (kill_member) {
    if (jet::Status s =
            cluster.WaitForCommittedSnapshot(1, 60 * jet::kNanosPerSecond);
        !s.ok()) {
      return Fail(s, "await snapshot");
    }
    std::printf("snapshot %lld committed; kill -9 member 1\n",
                static_cast<long long>(cluster.last_committed_snapshot()));
    if (jet::Status s = cluster.KillMember(1); !s.ok()) return Fail(s, "kill");
  }

  if (jet::Status s = cluster.AwaitJobCompletion(180 * jet::kNanosPerSecond);
      !s.ok()) {
    return Fail(s, "join");
  }

  jet::Status verdict = cluster.VerifyExactlyOnce();
  if (!verdict.ok()) return Fail(verdict, "exactly-once");
  std::printf(
      "exactly-once verified: %lld events across %lld attempt(s), "
      "%d member(s) alive, %lld respawn(s), last committed snapshot %lld\n",
      static_cast<long long>(cluster.expected_total()),
      static_cast<long long>(cluster.attempts()), cluster.live_member_count(),
      static_cast<long long>(cluster.respawn_count()),
      static_cast<long long>(cluster.last_committed_snapshot()));
  if (kill_member && cluster.respawn_count() < 1) {
    std::fprintf(stderr, "FAIL: killed a member but nothing was respawned\n");
    return 1;
  }
  if (kill_member && cluster.live_member_count() != options.initial_members) {
    std::fprintf(stderr, "FAIL: cluster did not heal back to full membership\n");
    return 1;
  }

  // Self-healing diagnostics, Prometheus exposition: CI greps these.
  ProcessCluster::Diagnostics diag = cluster.DiagnosticsDump();
  std::printf("--- diagnostics ---\n%s", diag.prometheus.c_str());
  cluster.Shutdown();
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  return 0;
}
