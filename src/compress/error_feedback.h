// Error-feedback (residual accumulation) for sparsified SGD.
//
// Top-k sparsification discards most gradient coordinates; convergence
// guarantees (Stich et al. 2018; Karimireddy et al. 2019, both cited by the
// paper) require feeding the discarded remainder back into the next step:
//
//   acc_t   = grad_t + residual_{t-1}
//   sent_t  = TopK(acc_t, k)
//   residual_t = acc_t - dense(sent_t)
//
// The convergence experiments (Fig. 10 / Table 2) run this exact loop.
#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "compress/sparse_tensor.h"
#include "core/tensor.h"

namespace hitopk::compress {

class ErrorFeedback {
 public:
  // Pre-creates a zero residual of `size` elements for `key` if absent,
  // and returns its storage.  apply_priming/absorb_primed insert missing
  // entries themselves, which mutates the map; callers that run them on
  // distinct keys from parallel workers (HiTopKComm's per-shard loop) must
  // ensure() every key serially first so the workers only ever look
  // entries up.  The returned span stays valid until the key is erased,
  // taken, set or reset; a caller that compensates the gradient itself
  // (MsTopK::compress with a residual) primes it in place, then finishes
  // with absorb_primed() like apply_priming's callers.
  std::span<float> ensure(const std::string& key, size_t size);

  // The compensation half of the exchange, fused with the residual update:
  // grad += residual[key] AND residual[key] = the compensated gradient, in
  // one pass over the buffer (a zero residual is created on first use).
  // The caller selects `sent` from grad WITHOUT touching grad in between,
  // then finishes with absorb_primed().
  void apply_priming(const std::string& key, std::span<float> grad);

  // Completes an apply_priming() exchange: subtracts sent.values from the
  // primed residual at sent.indices, leaving residual[key] =
  // grad - dense(sent).  That is grad itself at unsent coordinates, exactly
  // +0.0 at coordinates sent at their gradient value, and the
  // *quantization error* where the value crossed a lossy wire codec first
  // (compress/wire_codec.h) — feeding that error back is what keeps
  // quantized top-k unbiased in the EF sense (Karimireddy et al. 2019).
  // `sent.indices` must index into grad, and the residual must not have
  // been re-primed for another gradient in between.
  void absorb_primed(const std::string& key, const SparseTensor& sent);

  // Sum of squared residual magnitudes across all keys (a diagnostic the
  // convergence bench tracks: bounded residual norm is the EF invariant).
  // Accumulated in sorted-key order, so the value is a function of the
  // stored residuals alone — independent of map insertion history, which a
  // checkpoint restore cannot reproduce.
  double residual_sq_norm() const;

  // Drops all stored residuals (e.g. between convergence runs).
  void reset();

  size_t num_tensors() const { return residuals_.size(); }

  // ---- state export / elastic remap (checkpointing and world rescale) ----

  // All stored keys, sorted (a canonical order for serialization).
  std::vector<std::string> keys() const;

  bool has(const std::string& key) const { return residuals_.count(key) > 0; }

  // Read-only view of an existing residual; throws CheckError if absent.
  std::span<const float> residual(const std::string& key) const;

  // Overwrites (or creates) the residual for `key` from a checkpoint.
  void set(const std::string& key, std::span<const float> values);

  // Removes the residual for `key` and returns it (empty Tensor if absent).
  // The building block for elastic re-keying: take() every affected entry,
  // then set()/accumulate() under the new keys — no in-place rename that
  // could collide.
  Tensor take(const std::string& key);

  // residual[key] += values (created zeroed if absent).  Used to fold a dead
  // worker's residual into a survivor so the total unsent gradient mass is
  // preserved across a world shrink.
  void accumulate(const std::string& key, std::span<const float> values);

  // Drops the residual for `key` if present (a worker that left the world
  // and whose mass was folded elsewhere).
  void erase(const std::string& key) { residuals_.erase(key); }

 private:
  // Finds (or, on first use, creates) the residual for `key`.
  Tensor& entry(const std::string& key, size_t size);

  std::unordered_map<std::string, Tensor> residuals_;
};

}  // namespace hitopk::compress
