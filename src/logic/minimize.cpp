#include "logic/minimize.hpp"

#include <stdexcept>

#include "logic/espresso.hpp"
#include "logic/isop.hpp"
#include "logic/qmc.hpp"

namespace addm::logic {

MinimizerAlgo selected_minimizer(int num_vars, const MinimizeOptions& opt) {
  if (opt.algo != MinimizerAlgo::Auto) return opt.algo;
  return num_vars >= opt.heuristic_min_vars ? MinimizerAlgo::Espresso
                                            : MinimizerAlgo::Isop;
}

const char* minimizer_name(MinimizerAlgo algo) {
  switch (algo) {
    case MinimizerAlgo::Isop:
      return "isop";
    case MinimizerAlgo::Exact:
      return "exact";
    case MinimizerAlgo::Espresso:
      return "espresso";
    case MinimizerAlgo::Auto:
      return "auto";
  }
  return "?";
}

namespace {

/// The innermost open MinimizeMemo of this thread, if any.
thread_local MinimizeMemo* t_memo = nullptr;

Cover run_backend(const TruthTable& onset_lower, const TruthTable& onset_upper,
                  const MinimizeOptions& opt) {
  switch (selected_minimizer(onset_lower.num_vars(), opt)) {
    case MinimizerAlgo::Exact:
      return minimize_exact(onset_lower, onset_upper);
    case MinimizerAlgo::Espresso:
      return espresso(onset_lower, onset_upper);
    case MinimizerAlgo::Isop:
    case MinimizerAlgo::Auto:
      break;
  }
  return isop(onset_lower, onset_upper);
}

}  // namespace

MinimizeMemo::MinimizeMemo() : outer_(t_memo) { t_memo = this; }

MinimizeMemo::~MinimizeMemo() { t_memo = outer_; }

Cover minimize(const TruthTable& onset_lower, const TruthTable& onset_upper,
               const MinimizeOptions& opt) {
  // Validate once here so every backend rejects bad bounds with the same
  // message shape, before any algorithm-specific work.
  if (onset_lower.num_vars() != onset_upper.num_vars())
    throw std::invalid_argument("minimize: mismatched variable counts");
  if (!onset_lower.implies(onset_upper))
    throw std::invalid_argument("minimize: lower bound not contained in upper bound");

  MinimizeMemo* memo = t_memo;
  if (!memo) return run_backend(onset_lower, onset_upper, opt);

  std::vector<MinimizeMemo::Entry>& bucket = memo->buckets_[onset_lower.hash()];
  for (const MinimizeMemo::Entry& e : bucket)
    if (e.opt == opt && e.lower == onset_lower && e.upper == onset_upper) return e.cover;
  Cover cover = run_backend(onset_lower, onset_upper, opt);
  bucket.push_back({onset_lower, onset_upper, opt, cover});
  ++memo->size_;
  return cover;
}

Cover minimize(const TruthTable& f, const MinimizeOptions& opt) {
  return minimize(f, f, opt);
}

}  // namespace addm::logic
