#ifndef IAM_CORE_PRESETS_H_
#define IAM_CORE_PRESETS_H_

#include "core/ar_density_estimator.h"

namespace iam::core {

// Paper-faithful IAM configuration (Section 6.1.2), scaled for a single-CPU
// environment: ResMADE 256-128-128-256, one GMM with `components` mixtures
// per large-domain continuous attribute, range masses from the normal CDF.
inline ArEstimatorOptions IamDefaults(int components = 30) {
  ArEstimatorOptions opts;
  opts.use_domain_reduction = true;
  opts.reducer_kind = ReducerKind::kGmm;
  opts.reducer_components = components;
  opts.display_name = "iam";
  return opts;
}

// NeuroCard-style baseline: same AR backbone, dictionary encoding with
// column factorization (sub-column domain 2^11) instead of domain reduction,
// vanilla progressive sampling.
inline ArEstimatorOptions NeurocardDefaults() {
  ArEstimatorOptions opts;
  opts.use_domain_reduction = false;
  opts.display_name = "neurocard";
  return opts;
}

}  // namespace iam::core

#endif  // IAM_CORE_PRESETS_H_
