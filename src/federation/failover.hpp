#pragma once
// Cross-facility failover primitives, split out of the broker so each hop of
// the ladder is independently testable:
//
//   1. capture_checkpoint — portable inter-step state from the failed site
//      (completed-step outputs + input; never epochs/backoff/breakers).
//   2. mirror_manifests   — replicate the failed site's transfer chunk
//      manifests to the survivor, so a re-issued transfer resumes from the
//      chunks that already landed (PR 5's spill/resume path) instead of
//      moving every byte again.
//   3. resume_at          — relaunch at the peer via FlowService::resume,
//      starting at the checkpointed step with fresh retry state.
//
// The broker composes 1-3. Tests drive them directly: checkpoint and resume
// against two FlowServices with a scripted provider on a shared engine,
// manifest mirroring against two bare TransferServices.
#include <memory>
#include <string>

#include "federation/federation.hpp"
#include "flow/service.hpp"
#include "util/result.hpp"

namespace pico::federation {

/// Export the run's portable inter-step state from `from`. Works for active
/// and settled runs (a cancelled run checkpoints at the step it was on).
util::Result<flow::RunCheckpoint> capture_checkpoint(const Site& from,
                                                     const flow::RunId& run);

/// Replicate chunk manifests from -> to; returns how many were newly
/// imported. No-op (0) when either side has no transfer service or the sites
/// are the same. Import never overwrites local manifests and clears claimed
/// bits, so the survivor re-verifies and re-claims chunks itself.
size_t mirror_manifests(const Site& from, const Site& to);

/// Continue `checkpoint` at `to` with a fresh run id, epoch, backoff salt,
/// and `to`'s own breakers.
util::Result<flow::RunId> resume_at(
    const Site& to, std::shared_ptr<const flow::FlowDefinition> def,
    flow::RunCheckpoint checkpoint, const std::string& label = "");

}  // namespace pico::federation
