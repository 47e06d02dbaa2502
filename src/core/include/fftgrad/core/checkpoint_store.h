// Durable checkpoint storage with crash-safe writes and bounded retention.
//
// The state blob's CRC frame (frame_state, fftgrad/core/replica.h) makes a
// TrainerCheckpoint tamper-evident; this store makes the *file* crash-safe:
// a checkpoint is written to `<name>.tmp` and atomically renamed into
// place, so a process killed mid-write leaves at worst a stale .tmp — never
// a half-written checkpoint under the final name. Retention keeps the
// newest K checkpoints (FFTGRAD_CKPT_KEEP, default 3) so a corrupt or
// regressed latest can always be rolled past.
//
// latest() walks the retained checkpoints newest-first and returns the
// first one whose blob parses (CRC-valid; train() releases it); torn or
// corrupted files are skipped, which is what turns kill -9 during save()
// into "resume from the previous epoch" instead of "resume fails".
//
// Thread contract: single-threaded by design — each rank owns its private
// store rooted at a per-rank directory, so no two threads ever touch the
// same instance (crash-safety above is against *process* death, not
// concurrent callers). It intentionally carries no mutex or thread-safety
// annotations; sharing an instance across threads is a caller bug.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "fftgrad/core/trainer.h"

namespace fftgrad::core {

class CheckpointStore {
 public:
  /// `dir` is created if missing. `keep` == 0 means unlimited retention.
  explicit CheckpointStore(std::string dir, std::size_t keep = keep_from_env());

  const std::string& dir() const { return dir_; }
  std::size_t keep() const { return keep_; }

  /// Atomically persist `ckpt` (keyed by its next epoch) and prune beyond
  /// the retention limit. Throws std::runtime_error on IO failure.
  void save(const TrainerCheckpoint& ckpt);

  /// Newest checkpoint whose blob parses; nullopt when none is valid
  /// (empty store, or every retained file is corrupt).
  std::optional<util::Untrusted<TrainerCheckpoint>> latest() const;

  /// Retained checkpoint file names (no directory), newest first.
  std::vector<std::string> files() const;

  /// FFTGRAD_CKPT_KEEP (default 3; 0 = unlimited).
  static std::size_t keep_from_env();

 private:
  std::string path_for(std::uint64_t epoch) const;

  std::string dir_;
  std::size_t keep_ = 3;
};

}  // namespace fftgrad::core
