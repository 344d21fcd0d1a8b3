// Copyright (c) 2026 The siri Authors. MIT license.
//
// Optimistic concurrent branch commits (the paper's §2.1/§5.6 collaboration
// story made multi-writer). CommitWithMerge is the retry driver over
// BranchManager's head-CAS primitives:
//
//   1. try to CAS the branch head to a commit of the caller's new root;
//   2. on a typed Conflict, load the head that won, find the merge base,
//      run ImmutableIndex::Merge3 against the winner's root, write a
//      two-parent merge commit, and CAS again — with bounded backoff.
//
// Every merge attempt stages its nodes (merged index pages + both commit
// objects) in a StagingNodeStore over the caller's store, so an attempt
// that loses the next CAS is dropped wholesale: zero store writes, zero
// upload RPCs, zero fsyncs. Only the attempt that wins the head race pays
// one PutMany and one Flush.

#ifndef SIRI_VERSION_OCC_H_
#define SIRI_VERSION_OCC_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "common/status.h"
#include "index/index.h"
#include "version/commit.h"

namespace siri {

/// \brief Tuning and hooks for CommitWithMerge.
struct MergeCommitOptions {
  /// Lost-CAS merge retries before giving up with Conflict.
  int max_retries = 8;
  /// Exponential backoff before each merge retry: attempt k sleeps
  /// min(backoff_init_micros << k, backoff_max_micros); 0 disables.
  uint64_t backoff_init_micros = 50;
  uint64_t backoff_max_micros = 5000;
  /// Resolves keys changed divergently on both sides during Merge3. With
  /// none, such a commit race fails with Status::Conflict (the paper's
  /// "a selection strategy must be given").
  ConflictResolver resolver;
  /// Store the fast-path commit object ships through (default: the
  /// index's store). Letting this differ from the index's binding is the
  /// ForkBase deployment split: the client pays one upload RPC for its
  /// content commit while merge retries run where \p index is bound —
  /// typically server-side, next to the nodes they must read.
  NodeStore* commit_store = nullptr;
  /// Test/observability hook, called before each merge retry with the
  /// retry ordinal (0-based) and the head that won the lost CAS. Tests
  /// use it to drive deterministic interleavings (e.g. landing another
  /// commit to force a second retry).
  std::function<void(int retry, const Hash& winner)> on_retry;
};

/// \brief What CommitWithMerge did.
struct MergeCommitResult {
  Hash head;              ///< branch head after the call
  Hash commit;            ///< the author's content commit (== head when the
                          ///< first CAS won; a merge parent otherwise)
  int cas_failures = 0;   ///< head races lost along the way
  int merge_commits = 0;  ///< two-parent commits written (0 = clean commit)
  /// The nodes this publish landed (merged index pages + commit objects),
  /// captured on the contended paths only — a clean fast-path commit wrote
  /// nothing the author does not already hold, so it stays null. The
  /// server's publish ack ships this back to the client (the
  /// combiner-aware cache push): it is exactly the node set a losing
  /// committer re-reads next round.
  std::shared_ptr<const NodeBatch> staged;
  /// True when the publish's deterministic content commit was ALREADY in
  /// the branch history — this call executed nothing and wrote nothing;
  /// `head`/`commit` just point at the earlier landing. That happens when
  /// a client replays a publish whose ack was lost (the socket transport
  /// replays every failed attempt and relies on exactly this dedup).
  /// Callers keeping executed-commit accounting must not count these.
  bool already_applied = false;
};

/// Commits \p new_root — built on top of \p expected_head's root — to
/// \p branch, auto-merging past concurrent winners. \p expected_head is
/// the head the caller read before building \p new_root (nullopt when
/// creating the branch). \p index must be bound to the store the new
/// root's nodes live in; merge attempts stage through that same store,
/// so with a client-side store the whole merge ships as one upload RPC.
///
/// First-committer-wins: the commit that lands first keeps its root
/// untouched; the loser's retry produces a merge commit whose parents are
/// [winner, loser's content commit] and whose root is
/// Merge3(loser, winner, base). Returns Conflict when retries are
/// exhausted or a key conflict has no resolver.
Result<MergeCommitResult> CommitWithMerge(
    BranchManager* mgr, ImmutableIndex* index, const std::string& branch,
    const Hash& new_root, const std::string& author,
    const std::string& message, const std::optional<Hash>& expected_head,
    const MergeCommitOptions& opts = {});

/// Backoff before the (ordinal+1)-th merge retry, per \p opts:
/// min(backoff_init << ordinal, backoff_max), with the shift clamped so
/// a large retry count cannot shift past the word width (UB). Returns 0
/// when backoff is disabled. Shared by the per-commit retry driver and
/// the group-commit combiner so the two retry loops cannot drift.
uint64_t MergeBackoffMicros(const MergeCommitOptions& opts, int ordinal);

/// Root of the merge base between what a committer built on
/// (\p expected_head; nullopt = built from the empty index) and
/// \p actual_head, the commit that actually won the branch race. In the
/// normal race the winner descends from expected_head, so the base IS the
/// old head — IsAncestor confirms that in O(divergence) steps instead of
/// MergeBase's O(history) ancestry collection; an administrative head
/// reset (winner not a descendant) falls back to the full MergeBase walk.
/// Shared by the per-commit retry driver above and the group-commit
/// combiner (version/group_commit.h).
Result<Hash> MergeBaseRoot(BranchManager* mgr, ImmutableIndex* index,
                           const std::optional<Hash>& expected_head,
                           const Hash& actual_head);

/// Whether \p target — a content commit known to carry sequence
/// \p target_sequence — is already reachable from \p head. Commit
/// sequences strictly dominate every parent (version/commit.h), so the
/// walk descends only through commits whose sequence exceeds the
/// target's: O(commits landed since the target's parent), the same order
/// as the merge-base probe, NOT O(history). This is the server side of
/// exactly-once publishes: a content commit is deterministic in
/// (root, expected_head, author, message), so "is the replay's commit
/// reachable from the head" decides applied-vs-absent race-free — the
/// head CAS serializes every landing against this read. Shared by the
/// per-commit retry driver and the group-commit combiner.
Result<bool> CommitAlreadyApplied(BranchManager* mgr, const Hash& head,
                                  const Hash& target,
                                  uint64_t target_sequence);

}  // namespace siri

#endif  // SIRI_VERSION_OCC_H_
