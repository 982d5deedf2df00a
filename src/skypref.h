#ifndef SKYPREF_SKYPREF_H_
#define SKYPREF_SKYPREF_H_

/// \file
/// Umbrella header: the full public API of the skypref library, a
/// reproduction of "Skyline Probability over Uncertain Preferences"
/// (EDBT 2013).
///
/// Quickstart:
///
///   #include "src/skypref.h"
///
///   skypref::Dataset data(2);
///   data.Append({0, 0}).CheckOK();   // the target object O
///   data.Append({1, 0}).CheckOK();
///   data.Append({1, 1}).CheckOK();
///
///   skypref::TablePreferenceModel prefs;  // defaults every pair to 1/2
///   auto solver = skypref::SkylineSolver::Create(data, prefs).value();
///   double sky = solver.Exact(/*target=*/0).value();     // Det+
///   double est = solver.MonteCarlo(/*target=*/0).value(); // Sam+

#include "src/core/absorption.h"       // IWYU pragma: export
#include "src/core/adaptive_sampling.h"  // IWYU pragma: export
#include "src/core/bounds.h"           // IWYU pragma: export
#include "src/core/brute_force.h"      // IWYU pragma: export
#include "src/core/dominance.h"        // IWYU pragma: export
#include "src/core/exact.h"            // IWYU pragma: export
#include "src/core/incremental.h"     // IWYU pragma: export
#include "src/core/independent_baseline.h"  // IWYU pragma: export
#include "src/core/lineage_dp.h"       // IWYU pragma: export
#include "src/core/monte_carlo.h"      // IWYU pragma: export
#include "src/core/parallel.h"         // IWYU pragma: export
#include "src/core/partition.h"        // IWYU pragma: export
#include "src/core/prob_skyline.h"     // IWYU pragma: export
#include "src/core/sam_parallel.h"     // IWYU pragma: export
#include "src/core/solver.h"           // IWYU pragma: export
#include "src/core/subspace.h"         // IWYU pragma: export
#include "src/core/tentative_approx.h" // IWYU pragma: export
#include "src/core/topk_race.h"        // IWYU pragma: export
#include "src/io/binary_io.h"          // IWYU pragma: export
#include "src/io/dataset_io.h"         // IWYU pragma: export
#include "src/model/dataset.h"         // IWYU pragma: export
#include "src/model/domain.h"          // IWYU pragma: export
#include "src/model/preference_estimation.h"  // IWYU pragma: export
#include "src/model/preference_generator.h"  // IWYU pragma: export
#include "src/model/preference_model.h"      // IWYU pragma: export
#include "src/reduction/dnf.h"         // IWYU pragma: export
#include "src/workload/block_zipf_generator.h"  // IWYU pragma: export
#include "src/workload/car_evaluation.h"  // IWYU pragma: export
#include "src/workload/nursery.h"      // IWYU pragma: export
#include "src/workload/uniform_generator.h"     // IWYU pragma: export

#endif  // SKYPREF_SKYPREF_H_
