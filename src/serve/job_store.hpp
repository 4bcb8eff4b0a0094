// Persistent job table for the synthesis service (ISSUE 8): every job's
// lifecycle is a chain of WAL records, with bulky payloads (spec JSON,
// result JSON, synthesis checkpoints) in per-job files the records name.
//
// Record grammar (tab-separated, single line):
//
//   submit \t <id> \t <client>       spec at spec_path(id), written durably
//                                    BEFORE this record — a submit record
//                                    always has a readable spec
//   running \t <id>
//   progress \t <id> \t <iter>       advisory (non-fsync'd); recovery never
//                                    trusts it — the checkpoint file is the
//                                    only authority on resumable progress
//   suspended \t <id>                graceful drain parked the job (non-
//                                    terminal: recovery requeues it)
//   done \t <id>                     result at result_path(id), durable
//   failed \t <id> \t <message>      before the record (same as submit)
//   cancelled \t <id>
//
// Recovery folds the chain per id: the last record wins, and any job whose
// final state is non-terminal (queued/running/suspended) is handed back to
// the service for requeueing — with resume=true iff checkpoint_path(id)
// exists on disk. After recovery the store compacts: live jobs keep their
// submit(+running) chain, terminal jobs collapse to submit+terminal, and the
// rewritten log replaces the old one via durable tmp+rename.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "serve/wal.hpp"
#include "util/result.hpp"
#include "util/status.hpp"

namespace abg::serve {

enum class JobPhase { kQueued, kRunning, kSuspended, kDone, kFailed, kCancelled };

const char* job_phase_name(JobPhase p);  // "queued" / ... / "cancelled"
bool job_phase_terminal(JobPhase p);

class JobStore;
// True when a synthesis checkpoint file exists for `id` — the sole authority
// recovery consults when deciding to resume rather than restart a job.
bool job_checkpoint_exists(const JobStore& store, const std::string& id);

struct JobRecord {
  std::string id;       // "j-<n>", assigned by the service
  std::string client;   // submitting client id (admission key)
  JobPhase phase = JobPhase::kQueued;
  int iterations = 0;   // advisory, from progress records
  std::string error;    // terminal failure message (failed only)
};

class JobStore {
 public:
  JobStore() = default;

  JobStore(const JobStore&) = delete;
  JobStore& operator=(const JobStore&) = delete;

  // Open (or create) the store under `state_dir`, replay the WAL, compact
  // it, and leave it open for appends. After this, records() reflects every
  // job ever submitted, in submit order.
  util::Status open(const std::string& state_dir);
  void close();

  // Snapshot of all job records, submit order. Thread-safe.
  std::vector<JobRecord> records() const;
  // Single-job lookup; false when unknown. Thread-safe.
  bool lookup(const std::string& id, JobRecord* out) const;

  // Lifecycle appends. Each validates the transition, writes any payload
  // file durably first, then appends the WAL record. Thread-safe.
  util::Status record_submit(const std::string& id, const std::string& client,
                             const std::string& spec_json);
  util::Status record_running(const std::string& id);
  util::Status record_progress(const std::string& id, int iterations);
  util::Status record_suspended(const std::string& id);
  // phase must be terminal. result_json may be empty (no result file is
  // written then — e.g. a job shed after its submit record).
  util::Status record_terminal(const std::string& id, JobPhase phase,
                               const std::string& error,
                               const std::string& result_json);

  // Per-job file locations inside the state dir.
  std::string spec_path(const std::string& id) const;
  std::string result_path(const std::string& id) const;
  std::string checkpoint_path(const std::string& id) const;
  std::string trace_path(const std::string& id) const;  // raw-CSV submissions

  // 1 + the highest numeric suffix among known "j-<n>" ids (1 when empty) —
  // the service's id allocator survives restarts through this.
  std::uint64_t next_job_number() const;

  // Rewrite the WAL to its minimal equivalent (see header comment) via
  // durable tmp+rename. Called by open(); exposed for tests.
  util::Status compact();

  const std::string& state_dir() const { return state_dir_; }
  std::string wal_path() const { return state_dir_ + "/wal.log"; }

 private:
  util::Status apply(const std::string& payload, bool durable);
  util::Status compact_locked();

  mutable std::mutex mu_;
  std::string state_dir_;
  Wal wal_;
  std::vector<std::string> order_;            // ids in submit order
  std::map<std::string, JobRecord> jobs_;     // id -> folded state
};

}  // namespace abg::serve
