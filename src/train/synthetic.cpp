#include "train/synthetic.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "autodiff/tape.h"
#include "core/check.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/workspace.h"

namespace hitopk::train {
namespace {

// One reusable tape per thread: reset() rewinds it with capacity intact, so
// steady-state gradient/evaluate calls allocate nothing (the node vector,
// id staging, and arena capacity all survive between calls).  Thread-local,
// so parallel_for workers each drive their own tape.
ad::Tape& scratch_tape() {
  thread_local ad::Tape tape;
  tape.reset();
  return tape;
}

// Held-out samples per evaluate() forward pass.  Each row's logits are
// independent of the chunk it rides in, so the chunk size moves no bits; it
// only sets how far every pool thread's tape grows (the bench/e2e training
// runs peak ~60 MB lower at 256 rows than at 512).
constexpr size_t kEvalChunk = 256;

// One data split: `width` values per sample (features for the vision task,
// token ids for the sequence task), row-major, plus one label each.
template <typename Row>
struct Split {
  std::vector<Row> x;
  std::vector<int> y;
};

// The one implementation of the ConvergenceTask contract.  A stand-in
// derives from it and supplies three things: its data generator (a row
// filler passed to generate()), its segment table with init (add_segment,
// sizing params_, init_normal), and its forward graph (forward()).  The
// batch gather, input validation, gradient_at and evaluate live here once.
template <typename Row>
class SyntheticTask : public ConvergenceTask {
 public:
  std::string name() const final { return name_; }
  std::string quality_metric() const final { return metric_; }
  size_t train_size() const final { return train_.y.size(); }
  size_t param_count() const final { return params_.size(); }
  std::span<float> params() final { return params_.span(); }
  const std::vector<LayerSegment>& segments() const final { return segments_; }

  double gradient_at(std::span<const float> params,
                     std::span<const size_t> sample_indices,
                     std::span<float> grad_out) final {
    HITOPK_VALIDATE(params.size() == params_.size())
        << "gradient_at got" << params.size() << "parameters, the task has"
        << params_.size();
    HITOPK_VALIDATE(grad_out.size() == params_.size())
        << "gradient_at got a" << grad_out.size()
        << "element gradient buffer, the task has" << params_.size()
        << "parameters";
    const size_t b = sample_indices.size();
    HITOPK_VALIDATE(b > 0) << "gradient_at needs a non-empty batch";
    // Gather the batch into thread-local scratch (reused across calls).
    Scratch<Row> x(b * width_);
    Scratch<int> y(b);
    for (size_t i = 0; i < b; ++i) {
      const size_t idx = sample_indices[i];
      HITOPK_VALIDATE(idx < train_.y.size())
          << "sample index" << idx << "is outside the" << train_.y.size()
          << "training samples";
      std::copy_n(&train_.x[idx * width_], width_, &x[i * width_]);
      y[i] = train_.y[idx];
    }
    ad::Tape& tape = scratch_tape();
    const ad::VarId logits = forward(tape, params, x.span(), b, grad_out);
    const double loss = tape.softmax_cross_entropy(logits, y.span());
    tape.backward();
    return loss;
  }

  double evaluate() final {
    const size_t n = test_.y.size();
    // Chunked forward pass (no gradients) straight over the held-out rows;
    // chunks are independent, so they run on the thread pool.
    const size_t num_chunks = (n + kEvalChunk - 1) / kEvalChunk;
    std::vector<size_t> correct(num_chunks, 0);
    const std::span<const float> params = params_.span();
    const std::span<const Row> x(test_.x);
    const std::span<const int> y(test_.y);
    parallel_for(0, num_chunks, [&](size_t c) {
      const size_t begin = c * kEvalChunk;
      const size_t count = std::min(kEvalChunk, n - begin);
      ad::Tape& tape = scratch_tape();
      const ad::VarId logits = forward(
          tape, params, x.subspan(begin * width_, count * width_), count, {});
      correct[c] = ad::Tape::count_topk_correct(
          tape.value(logits), count, tape.cols(logits),
          y.subspan(begin, count), topk_);
    });
    size_t total = 0;
    for (size_t c : correct) total += c;
    return static_cast<double>(total) / static_cast<double>(n);
  }

 protected:
  // `width` values per sample; quality is top-`topk` accuracy.
  SyntheticTask(std::string name, std::string metric, size_t width,
                size_t topk)
      : name_(std::move(name)),
        metric_(std::move(metric)),
        width_(width),
        topk_(topk) {}

  // Fills the train then the test split with `train` and `test` samples: each sample
  // draws its class from `rng`, then fill_row(class, row) writes its `width`
  // values.
  template <typename FillRow>
  void generate(Rng& rng, size_t classes, size_t train, size_t test,
                FillRow fill_row) {
    for (auto [split, samples] : {std::pair{&train_, train},
                                  std::pair{&test_, test}}) {
      split->x.resize(samples * width_);
      split->y.resize(samples);
      for (size_t i = 0; i < samples; ++i) {
        const size_t c = static_cast<size_t>(rng.uniform_index(classes));
        split->y[i] = static_cast<int>(c);
        fill_row(c, &split->x[i * width_]);
      }
    }
  }

  // Appends the next segment of the flat parameter vector; size params_ to
  // the table's total once it is complete.
  void add_segment(std::string seg_name, size_t count) {
    segments_.push_back({std::move(seg_name), segment_total(), count});
  }
  size_t segment_total() const {
    return segments_.empty() ? 0
                             : segments_.back().begin + segments_.back().count;
  }

  // Draws segment `seg` from N(0, scale^2), element by element.
  void init_normal(size_t seg, Rng& rng, float scale) {
    const LayerSegment& s = segments_[seg];
    for (float& v : params_.slice(s.begin, s.count)) {
      v = static_cast<float>(rng.normal(0.0, scale));
    }
  }

  // A rows x cols parameter leaf over segment `seg` of `params`; when grad is
  // non-empty the backward pass writes the same slice of it.
  ad::VarId param_leaf(ad::Tape& tape, std::span<const float> params,
                       std::span<float> grad, size_t seg, size_t rows,
                       size_t cols) const {
    const LayerSegment& s = segments_[seg];
    return tape.leaf(params.subspan(s.begin, s.count),
                     grad.empty() ? std::span<float>{}
                                  : grad.subspan(s.begin, s.count),
                     rows, cols);
  }

  // Builds the forward graph of `batch` samples (rows of `x`) over the given
  // flat parameters and returns the logits.
  virtual ad::VarId forward(ad::Tape& tape, std::span<const float> params,
                            std::span<const Row> x, size_t batch,
                            std::span<float> grad) const = 0;

  Tensor params_;

 private:
  Split<Row> train_;
  Split<Row> test_;
  std::vector<LayerSegment> segments_;
  std::string name_;
  std::string metric_;
  size_t width_;
  size_t topk_;
};

// ------------------------------------------------------------ vision task
class MlpVisionTask : public SyntheticTask<float> {
 public:
  MlpVisionTask(uint64_t seed, std::string name, std::vector<size_t> hidden)
      : SyntheticTask(std::move(name), "top-5 accuracy", kDim, 5) {
    HITOPK_VALIDATE(!hidden.empty())
        << "make_vision_task needs at least one hidden layer";
    for (size_t width : hidden) {
      HITOPK_VALIDATE(width > 0)
          << "make_vision_task hidden widths must be positive";
    }
    // Gaussian mixture: class centers on a random sphere, isotropic noise
    // sized so top-1 is hard but top-5 is reachable (mirroring ImageNet's
    // top-5 metric head-room).  Train and test share the same centers.
    Rng rng(seed);
    Tensor centers(kClasses, kDim);
    centers.fill_normal(rng, 0.0f, 1.0f);
    generate(rng, kClasses, kTrainSamples, kTestSamples,
             [&](size_t c, float* row) {
               for (size_t j = 0; j < kDim; ++j) {
                 row[j] = centers.at(c, j) +
                          static_cast<float>(rng.normal(0.0, kNoise));
               }
             });

    // Layer dimensions: dim -> hidden... -> classes.
    dims_.push_back(kDim);
    dims_.insert(dims_.end(), hidden.begin(), hidden.end());
    dims_.push_back(kClasses);
    for (size_t l = 0; l + 1 < dims_.size(); ++l) {
      add_segment("w" + std::to_string(l), dims_[l] * dims_[l + 1]);
      add_segment("b" + std::to_string(l), dims_[l + 1]);
    }
    params_ = Tensor(segment_total());
    Rng init(seed + 1);
    for (size_t l = 0; l + 1 < dims_.size(); ++l) {
      // He initialization for the weights; zero biases.
      init_normal(2 * l, init, std::sqrt(2.0f / static_cast<float>(dims_[l])));
    }
  }

 private:
  ad::VarId forward(ad::Tape& tape, std::span<const float> params,
                    std::span<const float> x, size_t batch,
                    std::span<float> grad) const override {
    ad::VarId h = tape.leaf(x, {}, batch, kDim);
    for (size_t l = 0; l + 1 < dims_.size(); ++l) {
      const ad::VarId w =
          param_leaf(tape, params, grad, 2 * l, dims_[l], dims_[l + 1]);
      const ad::VarId bias =
          param_leaf(tape, params, grad, 2 * l + 1, 1, dims_[l + 1]);
      // Hidden layers fuse the bias add with the ReLU clamp.
      h = l + 2 < dims_.size() ? tape.add_bias_relu(tape.matmul(h, w), bias)
                               : tape.add_bias(tape.matmul(h, w), bias);
    }
    return h;
  }

  static constexpr size_t kClasses = 50;
  static constexpr size_t kDim = 64;
  static constexpr size_t kTrainSamples = 8192;
  static constexpr size_t kTestSamples = 2048;
  static constexpr double kNoise = 2.20;

  std::vector<size_t> dims_;
};

// ------------------------------------------------------------ seq task
// Class-conditional unigram sequences: class c emits tokens mostly from its
// own slice of the vocabulary, with uniform noise mixed in.
class SeqTask : public SyntheticTask<int> {
 public:
  SeqTask(uint64_t seed, std::string name)
      : SyntheticTask(std::move(name), "token accuracy", kSeqLen, 1) {
    Rng rng(seed);
    const size_t slice = kVocab / kClasses;
    generate(rng, kClasses, kTrainSamples, kTestSamples,
             [&](size_t c, int* tokens) {
               for (size_t t = 0; t < kSeqLen; ++t) {
                 tokens[t] = static_cast<int>(
                     rng.uniform() < kNoise
                         ? rng.uniform_index(kVocab)
                         : c * slice + rng.uniform_index(slice));
               }
             });

    add_segment("embedding", kVocab * kWidth);
    add_segment("w1", kWidth * kHidden);
    add_segment("b1", kHidden);
    add_segment("w2", kHidden * kClasses);
    add_segment("b2", kClasses);
    params_ = Tensor(segment_total());
    Rng init(seed + 1);
    const float he = std::sqrt(2.0f / static_cast<float>(kWidth));
    init_normal(0, init, 0.5f);  // embedding; zero biases
    init_normal(1, init, he);
    init_normal(3, init, he);
  }

 private:
  ad::VarId forward(ad::Tape& tape, std::span<const float> params,
                    std::span<const int> ids, size_t,
                    std::span<float> grad) const override {
    const ad::VarId table = param_leaf(tape, params, grad, 0, kVocab, kWidth);
    const ad::VarId embedded = tape.embedding(table, ids);
    const ad::VarId pooled = tape.mean_pool(embedded, kSeqLen);
    const ad::VarId w1 = param_leaf(tape, params, grad, 1, kWidth, kHidden);
    const ad::VarId b1 = param_leaf(tape, params, grad, 2, 1, kHidden);
    const ad::VarId h = tape.add_bias_relu(tape.matmul(pooled, w1), b1);
    const ad::VarId w2 = param_leaf(tape, params, grad, 3, kHidden, kClasses);
    const ad::VarId b2 = param_leaf(tape, params, grad, 4, 1, kClasses);
    return tape.add_bias(tape.matmul(h, w2), b2);
  }

  static constexpr size_t kClasses = 16;
  static constexpr size_t kVocab = 128;
  static constexpr size_t kSeqLen = 20;
  static constexpr size_t kWidth = 32;
  static constexpr size_t kHidden = 64;
  static constexpr size_t kTrainSamples = 8192;
  static constexpr size_t kTestSamples = 2048;
  static constexpr double kNoise = 0.82;
};

}  // namespace

std::unique_ptr<ConvergenceTask> make_vision_task(uint64_t seed,
                                                  const std::string& name,
                                                  std::vector<size_t> hidden) {
  return std::make_unique<MlpVisionTask>(seed, name, std::move(hidden));
}

std::unique_ptr<ConvergenceTask> make_sequence_task(uint64_t seed,
                                                    const std::string& name) {
  return std::make_unique<SeqTask>(seed, name);
}

}  // namespace hitopk::train
