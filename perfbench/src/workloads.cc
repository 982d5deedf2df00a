#include "workloads.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "accounting.h"
#include "src/core/absorption.h"
#include "src/core/exact.h"
#include "src/core/lineage_dp.h"
#include "src/core/oracles.h"
#include "src/core/parallel.h"
#include "src/core/partition.h"
#include "src/core/sam_parallel.h"
#include "src/core/solver.h"
#include "src/io/dataset_io.h"
#include "src/model/domain.h"
#include "src/model/preference_model.h"
#include "src/util/check.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"
#include "src/workload/block_zipf_generator.h"
#include "src/workload/nursery.h"
#include "src/workload/uniform_generator.h"
#include "trace.h"

namespace perfbench {
namespace {

using skypref::AbsorbAllCandidatesIndexed;
using skypref::AbsorbCandidates;
using skypref::AbsorptionStats;
using skypref::BatchExactStats;
using skypref::BatchSamStats;
using skypref::BlockLocalPreferenceModel;
using skypref::Dataset;
using skypref::DimensionId;
using skypref::Domain;
using skypref::DoubleOracle;
using skypref::ExactOptions;
using skypref::ExactStats;
using skypref::HashedPreferenceModel;
using skypref::LoadedDataset;
using skypref::MonteCarloOptions;
using skypref::ObjectId;
using skypref::PartitionWorkspace;
using skypref::PreferenceModel;
using skypref::Result;
using skypref::SkylineSolver;
using skypref::SolverOptions;
using skypref::Status;
using skypref::ThreadPool;
using skypref::ValueId;
using skypref::ValuePostings;

enum class Query {
  kAllExact,          ///< BatchExactSkylineProbabilities
  kAllSam,            ///< BatchMonteCarloSkylineProbabilities, bit-sliced
  kOneParallelExact,  ///< ParallelExactSkylineProbability
  kOneSolverExact,    ///< SkylineSolver::Exact
};

struct Spec {
  const char* name;
  Query query;
  std::size_t pool_workers;
};

// BENCHMARK.json order. Pooled workloads use 3 workers, so with the
// calling thread they occupy 4 hardware threads.
constexpr Spec kSpecs[] = {
    {"bz1200_all_exact", Query::kAllExact, 3},
    {"bz1200_all_sam", Query::kAllSam, 3},
    {"uni22_one_exact", Query::kOneParallelExact, 3},
    {"nursery8_one_exact", Query::kOneSolverExact, 0},
};

// Block-Zipf (paper Figs. 9 and 13): d=5, n=1,200, block 12, 6 values
// per block, theta=1.
constexpr std::size_t kBzObjects = 1200;
constexpr std::size_t kBzDimensions = 5;
constexpr std::size_t kBzBlockSize = 12;
constexpr ValueId kBzValuesPerBlock = 6;
// Uniform (paper Fig. 9): d=5, 10 values per dimension, n=22, so every
// query solves one group of about 21 candidates. Absorption shrinks that
// group on some datasets and not on others, which halves or doubles the
// query time; a run therefore spreads its targets over several datasets
// from its seed, so runs with different seeds measure the same mix.
constexpr std::size_t kUniDatasets = 6;
constexpr std::size_t kUniObjects = 22;
constexpr std::size_t kUniDimensions = 5;
constexpr ValueId kUniValues = 10;

constexpr std::uint64_t kPreferenceSeed = 2013;
constexpr std::uint64_t kSamSeed = 2013;
constexpr double kSamEpsilon = 0.01;
constexpr double kSamDelta = 0.01;
constexpr double kExactTolerance = 1e-12;

// Nursery targets: a seeded sample long enough that a run never repeats
// a target, of which a seeded prefix is checked against the lineage DP.
constexpr std::size_t kNurseryTargets = 4096;
constexpr std::size_t kNurseryLineageChecks = 64;

// query_p90_ms needs at least 10 samples beyond it.
constexpr std::uint64_t kMinOneTargetQueries = 100;
constexpr std::uint64_t kMinAllObjectsQueries = 3;

// setup_s is the median of up to this many set-ups spread over the run.
constexpr std::size_t kMaxSetupReps = 40;

constexpr std::size_t kMaxProblemLines = 10;

bool IsAllObjects(Query query) {
  return query == Query::kAllExact || query == Query::kAllSam;
}

const Spec* FindSpec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

struct Generated {
  Dataset data{1};
  Domain domain{std::size_t{1}};
};

/// Value names "v<id>", so a CSV round trip can restore generator ids.
Domain SyntheticDomain(const Dataset& data) {
  Domain domain(data.dimensions());
  for (DimensionId j = 0; j < data.dimensions(); ++j) {
    for (ValueId v = 0; v < data.value_bound(j); ++v) {
      std::string name = "v";
      name += std::to_string(v);  // not "v" + ...: GCC 12 -Wrestrict bug
      domain.InternValue(j, name).status().CheckOK();
    }
  }
  return domain;
}

/// The workload's datasets: one, or kUniDatasets for uni22.
Result<std::vector<Generated>> Generate(const Spec& spec,
                                        std::uint64_t seed) {
  std::vector<Generated> parts;
  switch (spec.query) {
    case Query::kAllExact:
    case Query::kAllSam: {
      skypref::BlockZipfOptions options;
      options.objects = kBzObjects;
      options.dimensions = kBzDimensions;
      options.block_size = kBzBlockSize;
      options.values_per_block = kBzValuesPerBlock;
      options.theta = 1.0;
      options.seed = seed;
      Generated part;
      SKYPREF_ASSIGN_OR_RETURN(part.data, skypref::GenerateBlockZipf(options));
      part.domain = SyntheticDomain(part.data);
      parts.push_back(std::move(part));
      break;
    }
    case Query::kOneParallelExact: {
      for (std::size_t i = 0; i < kUniDatasets; ++i) {
        skypref::UniformOptions options;
        options.objects = kUniObjects;
        options.dimensions = kUniDimensions;
        options.values_per_dimension = kUniValues;
        options.seed = skypref::SplitSeed(seed, i);
        Generated part;
        SKYPREF_ASSIGN_OR_RETURN(part.data, skypref::GenerateUniform(options));
        part.domain = SyntheticDomain(part.data);
        parts.push_back(std::move(part));
      }
      break;
    }
    case Query::kOneSolverExact: {
      // Nursery is fixed data; the seed picks the targets.
      SKYPREF_ASSIGN_OR_RETURN(skypref::NurseryVariant nursery,
                               skypref::GenerateNursery());
      Generated part;
      part.data = std::move(nursery.dataset);
      part.domain = std::move(nursery.domain);
      parts.push_back(std::move(part));
      break;
    }
  }
  return parts;
}

/// The loaded dataset bound to its preference model and solver. Neither
/// copyable nor movable: the model wrapper and the solver point into it.
struct Instance {
  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  const PreferenceModel& model() const {
    if (block_local.has_value()) return *block_local;
    return base;
  }

  Dataset data{1};
  HashedPreferenceModel base{kPreferenceSeed,
                             HashedPreferenceModel::Style::kTotalUniform};
  std::optional<BlockLocalPreferenceModel> block_local;
  std::optional<SkylineSolver> solver;
};

/// LoadDatasetFile interns values in first-seen order; map them back onto
/// the generator's ids so BlockLocalPreferenceModel's block arithmetic
/// (id / values per block) and the hashed model see the generated data.
Result<Dataset> RestoreGeneratorIds(const LoadedDataset& loaded,
                                    const Domain& domain) {
  const Dataset& in = loaded.dataset;
  if (in.dimensions() != domain.dimensions()) {
    return Status::InvalidArgument("loaded CSV has the wrong dimensions");
  }
  std::vector<std::vector<ValueId>> to_generator(in.dimensions());
  for (DimensionId j = 0; j < in.dimensions(); ++j) {
    for (std::size_t v = 0; v < loaded.domain.value_count(j); ++v) {
      SKYPREF_ASSIGN_OR_RETURN(
          ValueId id,
          domain.FindValue(j, loaded.domain.value_name(
                                  j, static_cast<ValueId>(v))));
      to_generator[j].push_back(id);
    }
  }
  Dataset out(in.dimensions());
  std::vector<ValueId> row(in.dimensions());
  for (ObjectId i = 0; i < in.size(); ++i) {
    for (DimensionId j = 0; j < in.dimensions(); ++j) {
      row[j] = to_generator[j][in.value(i, j)];
    }
    SKYPREF_RETURN_IF_ERROR(out.Append(row));
  }
  return out;
}

/// One set-up: load the CSV, build the model, create the solver.
Result<std::unique_ptr<Instance>> SetUp(const std::string& csv_path,
                                        const Domain& domain, bool block_local,
                                        Tracer* tracer) {
  auto instance = std::make_unique<Instance>();
  LoadedDataset loaded;
  {
    ScopedSpan span(tracer, "io.load", 0);
    SKYPREF_ASSIGN_OR_RETURN(loaded, skypref::LoadDatasetFile(csv_path));
  }
  {
    ScopedSpan span(tracer, "io.restore_ids", 0);
    SKYPREF_ASSIGN_OR_RETURN(instance->data,
                             RestoreGeneratorIds(loaded, domain));
  }
  {
    ScopedSpan span(tracer, "model.create", 0);
    if (block_local) {
      instance->block_local.emplace(instance->base, kBzValuesPerBlock);
    }
    SKYPREF_ASSIGN_OR_RETURN(
        SkylineSolver solver,
        SkylineSolver::Create(instance->data, instance->model()));
    instance->solver.emplace(solver);
  }
  return instance;
}

// ---------------------------------------------------------------------------
// Serial replay through the layer calls
// ---------------------------------------------------------------------------

/// Work counts of one replay, summed over its targets.
struct ReplayCounts {
  std::uint64_t absorption_calls = 0;
  std::uint64_t candidates_in = 0;
  std::uint64_t kept = 0;
  std::uint64_t groups = 0;
  std::uint64_t largest_group = 0;
  std::uint64_t group_solves = 0;
  std::uint64_t subsets = 0;

  void Add(const ReplayCounts& other) {
    absorption_calls += other.absorption_calls;
    candidates_in += other.candidates_in;
    kept += other.kept;
    groups += other.groups;
    largest_group = std::max(largest_group, other.largest_group);
    group_solves += other.group_solves;
    subsets += other.subsets;
  }
};

/// Per-group ExactSkylineProbability multiplied in partition order — the
/// Det+ recombination of SkylineSolver::Exact and the batch solver.
Result<double> SolveGroups(const Dataset& data, ObjectId target,
                           const std::vector<std::vector<ObjectId>>& groups,
                           const DoubleOracle& oracle, Tracer* tracer,
                           std::uint64_t query_id, ReplayCounts* counts) {
  double product = 1.0;
  for (const auto& group : groups) {
    ExactStats stats;
    Result<double> solved = Status::Internal("unset");
    {
      ScopedSpan span(tracer, "exact", query_id);
      solved = skypref::ExactSkylineProbability(
          data, target, std::span<const ObjectId>(group), oracle,
          ExactOptions{}, &stats);
    }
    if (!solved.ok()) return solved.status();
    ++counts->group_solves;
    counts->subsets += stats.subsets_visited;
    counts->largest_group = std::max<std::uint64_t>(counts->largest_group,
                                                    group.size());
    product *= solved.value();
  }
  counts->groups += groups.size();
  return skypref::ClampProbability(product);
}

/// The all-objects query replayed serially: ValuePostings ->
/// AbsorbAllCandidatesIndexed -> PartitionCandidates(workspace) ->
/// SolveGroups, per target. Bit-identical to the batch exact solver.
Result<std::vector<double>> ReplayAllObjects(const Instance& instance,
                                             Tracer* tracer,
                                             std::uint64_t query_id,
                                             ReplayCounts* counts) {
  const Dataset& data = instance.data;
  std::optional<ValuePostings> postings;
  {
    ScopedSpan span(tracer, "absorption.postings", query_id);
    postings.emplace(data);
  }
  PartitionWorkspace workspace;
  DoubleOracle oracle(instance.model());
  std::vector<double> values(data.size());
  for (ObjectId t = 0; t < data.size(); ++t) {
    AbsorptionStats absorption;
    std::vector<ObjectId> kept;
    {
      ScopedSpan span(tracer, "absorption", query_id);
      kept = AbsorbAllCandidatesIndexed(data, t, *postings, &absorption);
    }
    std::vector<std::vector<ObjectId>> groups;
    {
      ScopedSpan span(tracer, "partition", query_id);
      groups = skypref::PartitionCandidates(
          data, t, std::span<const ObjectId>(kept), workspace);
    }
    ++counts->absorption_calls;
    counts->candidates_in += absorption.input_candidates;
    counts->kept += kept.size();
    SKYPREF_ASSIGN_OR_RETURN(values[t], SolveGroups(data, t, groups, oracle,
                                                    tracer, query_id, counts));
  }
  return values;
}

/// One target replayed serially: AbsorbCandidates -> PartitionCandidates
/// -> SolveGroups, the path of SkylineSolver::Exact.
Result<double> ReplayOneTarget(const Instance& instance, ObjectId target,
                               Tracer* tracer, std::uint64_t query_id,
                               ReplayCounts* counts) {
  const Dataset& data = instance.data;
  std::vector<ObjectId> candidates;
  candidates.reserve(data.size() - 1);
  for (ObjectId id = 0; id < data.size(); ++id) {
    if (id != target) candidates.push_back(id);
  }
  AbsorptionStats absorption;
  std::vector<ObjectId> kept;
  {
    ScopedSpan span(tracer, "absorption", query_id);
    kept = AbsorbCandidates(data, target, candidates, &absorption);
  }
  std::vector<std::vector<ObjectId>> groups;
  {
    ScopedSpan span(tracer, "partition", query_id);
    groups = skypref::PartitionCandidates(data, target,
                                          std::span<const ObjectId>(kept));
  }
  ++counts->absorption_calls;
  counts->candidates_in += absorption.input_candidates;
  counts->kept += kept.size();
  return SolveGroups(data, target, groups, DoubleOracle(instance.model()),
                     tracer, query_id, counts);
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

/// One target of a one-target workload: an object of one dataset.
struct Target {
  std::size_t part = 0;
  ObjectId object = 0;
};

/// Everything one run accumulates; turned into metrics at the end.
struct RunState {
  const Spec* spec = nullptr;
  const RunConfig* config = nullptr;
  Tracer* tracer = nullptr;  // null when untraced
  RunReport* report = nullptr;

  std::vector<Generated> inputs;
  std::vector<std::string> csv_paths;
  std::uintmax_t csv_bytes = 0;
  std::vector<std::unique_ptr<Instance>> parts;
  std::unique_ptr<ThreadPool> pool;

  std::vector<double> setup_s;

  // References, computed before the timed window. All-objects workloads
  // index them by object, one-target workloads by position in targets.
  std::vector<Target> targets;
  std::vector<double> reference;         // see ComputeReferences
  std::vector<double> solver_reference;  // uni22: SkylineSolver::Exact
  std::vector<double> inline_ms;         // uni22: inline-pool call times

  // The closed loop.
  std::uint64_t queries = 0;
  std::vector<double> call_ms;
  double call_wall_s = 0.0;
  double call_cpu_s = 0.0;
  TargetTally tally;
  BatchExactStats first_exact_stats;
  BatchSamStats first_sam_stats;

  // Traced run only.
  ReplayCounts counts;  // over queries 1..count_queries
  std::uint64_t count_queries = 0;
  double inline_call_ms = 0.0;  // all-objects: one inline-pool call

  const Instance& instance(std::size_t part = 0) const { return *parts[part]; }

  void Problem(const std::string& line) {
    report->correct = false;
    if (report->problems.size() < kMaxProblemLines) {
      report->problems.push_back(line);
    }
  }
};

std::string TargetLabel(const RunState& run, std::size_t index) {
  if (IsAllObjects(run.spec->query)) return "object " + std::to_string(index);
  const Target& target = run.targets[index];
  return "object " + std::to_string(target.object) + " of dataset " +
         std::to_string(target.part);
}

/// Times one set-up of every dataset into run.setup_s. The first one is
/// kept for the queries; later ones (spread over the run, so a passing
/// burst of machine noise cannot move the median) are discarded.
Status TimedSetUp(RunState& run) {
  const bool block_local = IsAllObjects(run.spec->query);
  std::vector<std::unique_ptr<Instance>> parts;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < run.inputs.size(); ++i) {
    SKYPREF_ASSIGN_OR_RETURN(std::unique_ptr<Instance> part,
                             SetUp(run.csv_paths[i], run.inputs[i].domain,
                                   block_local, run.tracer));
    parts.push_back(std::move(part));
  }
  run.setup_s.push_back(SecondsSince(start));
  if (run.parts.empty()) run.parts = std::move(parts);
  return Status::OK();
}

/// Reference answers, outside the timed window:
///  * bz1200_*: the serial replay, which must equal SkylineSolver::Exact;
///  * uni22: ParallelExactSkylineProbability on an inline pool, and
///    SkylineSolver::Exact, which must agree within kExactTolerance;
///  * nursery8: LineageExactWithPreprocessing on a seeded prefix of the
///    target sample (NaN elsewhere: not compared).
Status ComputeReferences(RunState& run) {
  switch (run.spec->query) {
    case Query::kAllExact:
    case Query::kAllSam: {
      const Instance& instance = run.instance();
      ReplayCounts unused;
      SKYPREF_ASSIGN_OR_RETURN(
          run.reference, ReplayAllObjects(instance, nullptr, 0, &unused));
      if (run.spec->query == Query::kAllExact) {
        for (ObjectId t = 0; t < instance.data.size(); ++t) {
          Result<double> exact = instance.solver->Exact(t);
          if (!exact.ok() || !SameBits(exact.value(), run.reference[t])) {
            run.Problem("replay differs from SkylineSolver::Exact at " +
                        TargetLabel(run, t));
          }
        }
      }
      break;
    }
    case Query::kOneParallelExact: {
      // Object-major order, so any prefix of a cycle mixes the datasets.
      for (ObjectId t = 0; t < kUniObjects; ++t) {
        for (std::size_t part = 0; part < run.parts.size(); ++part) {
          run.targets.push_back(Target{part, t});
        }
      }
      ThreadPool inline_pool(0);
      for (std::size_t k = 0; k < run.targets.size(); ++k) {
        const Instance& instance = run.instance(run.targets[k].part);
        const ObjectId t = run.targets[k].object;
        const auto start = std::chrono::steady_clock::now();
        SKYPREF_ASSIGN_OR_RETURN(
            double pooled, skypref::ParallelExactSkylineProbability(
                               instance.data, t, instance.model(),
                               inline_pool));
        run.inline_ms.push_back(SecondsSince(start) * 1e3);
        SKYPREF_ASSIGN_OR_RETURN(double serial, instance.solver->Exact(t));
        run.reference.push_back(pooled);
        run.solver_reference.push_back(serial);
        if (!(std::fabs(pooled - serial) <= kExactTolerance)) {
          run.Problem("inline ParallelExact differs from SkylineSolver::Exact "
                      "at " + TargetLabel(run, k));
        }
      }
      break;
    }
    case Query::kOneSolverExact: {
      const Instance& instance = run.instance();
      skypref::Rng rng(skypref::SplitSeed(run.config->seed, 1));
      std::vector<ObjectId> all(instance.data.size());
      std::iota(all.begin(), all.end(), ObjectId{0});
      const std::size_t count = std::min(kNurseryTargets, all.size());
      for (std::size_t i = 0; i < count; ++i) {
        std::swap(all[i], all[i + rng.NextBounded(all.size() - i)]);
        run.targets.push_back(Target{0, all[i]});
      }
      run.reference.assign(count, std::numeric_limits<double>::quiet_NaN());
      for (std::size_t k = 0; k < std::min(kNurseryLineageChecks, count); ++k) {
        SKYPREF_ASSIGN_OR_RETURN(
            run.reference[k],
            skypref::LineageExactWithPreprocessing(
                instance.data, run.targets[k].object, instance.model()));
      }
      break;
    }
  }
  return Status::OK();
}

/// The check of one answer (\p index as the references are indexed);
/// also feeds the tally.
void CheckTarget(RunState& run, std::size_t index, const Status& status,
                 double value) {
  bool passed = false;
  if (status.ok() && !std::isnan(value)) {
    const double reference = run.reference[index];
    switch (run.spec->query) {
      case Query::kAllExact:
        passed = SameBits(value, reference);
        break;
      case Query::kAllSam:
        passed = std::fabs(value - reference) <= 2 * kSamEpsilon;
        break;
      case Query::kOneParallelExact:
        passed = SameBits(value, reference) &&
                 std::fabs(value - run.solver_reference[index]) <=
                     kExactTolerance;
        break;
      case Query::kOneSolverExact:
        passed = value >= 0.0 && value <= 1.0 &&
                 (std::isnan(reference) ||
                  std::fabs(value - reference) <= kExactTolerance);
        break;
    }
  }
  if (!run.tally.Record(status, value, passed)) {
    run.Problem("wrong answer at " + TargetLabel(run, index) + ": " +
                (status.ok() ? std::to_string(value) : status.ToString()));
  }
}

const char* CallSpanName(Query query) {
  switch (query) {
    case Query::kAllExact:
      return "solver.batch_exact";
    case Query::kAllSam:
      return "sam.batch";
    case Query::kOneParallelExact:
      return "parallel.exact";
    case Query::kOneSolverExact:
      return "solver.exact";
  }
  return "";
}

/// One all-objects library call on \p pool.
Result<std::vector<double>> CallAllObjects(const RunState& run,
                                           ThreadPool& pool,
                                           BatchExactStats* exact_stats,
                                           BatchSamStats* sam_stats) {
  const Instance& instance = run.instance();
  if (run.spec->query == Query::kAllExact) {
    return skypref::BatchExactSkylineProbabilities(
        instance.data, instance.model(), pool, SolverOptions{}, exact_stats);
  }
  SolverOptions options;
  options.monte_carlo.engine = MonteCarloOptions::Engine::kBitSliced;
  options.monte_carlo.epsilon = kSamEpsilon;
  options.monte_carlo.delta = kSamDelta;
  options.monte_carlo.seed = kSamSeed;
  return skypref::BatchMonteCarloSkylineProbabilities(
      instance.data, instance.model(), pool, options, sam_stats);
}

/// One one-target library call.
Result<double> CallOneTarget(const RunState& run, const Target& target) {
  const Instance& instance = run.instance(target.part);
  if (run.spec->query == Query::kOneParallelExact) {
    return skypref::ParallelExactSkylineProbability(
        instance.data, target.object, instance.model(), *run.pool);
  }
  return instance.solver->Exact(target.object);
}

/// Times one library call (wall and process CPU) into the run.
class CallTimer {
 public:
  explicit CallTimer(RunState& run)
      : run_(run),
        start_(std::chrono::steady_clock::now()),
        cpu_start_(ProcessCpuSeconds()) {}
  ~CallTimer() {
    const double wall = SecondsSince(start_);
    run_.call_cpu_s += ProcessCpuSeconds() - cpu_start_;
    run_.call_wall_s += wall;
    run_.call_ms.push_back(wall * 1e3);
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  RunState& run_;
  std::chrono::steady_clock::time_point start_;
  double cpu_start_;
};

/// Traced run: replays query \p q serially, once with spans and once
/// without (alternating which goes first), and checks that both replays
/// reproduce the query's \p answers — or, on bz1200_all_sam, whose
/// answers are estimates, the exact references. \p target is the
/// one-target workloads' target index.
void ReplayAndSelfCheck(RunState& run, std::uint64_t q,
                        const std::vector<double>& answers,
                        std::size_t target) {
  const bool all_objects = IsAllObjects(run.spec->query);
  ReplayCounts traced_counts;
  ReplayCounts untraced_counts;
  std::vector<double> traced;
  std::vector<double> untraced;
  auto replay = [&](Tracer* tracer, const char* span_name,
                    ReplayCounts* counts, std::vector<double>* values) {
    ScopedSpan span(run.tracer, span_name, q);
    if (all_objects) {
      Result<std::vector<double>> all =
          ReplayAllObjects(run.instance(), tracer, q, counts);
      if (all.ok()) {
        *values = std::move(all).value();
      } else {
        run.Problem("replay failed: " + all.status().ToString());
      }
      return;
    }
    const Target& t = run.targets[target];
    Result<double> one =
        ReplayOneTarget(run.instance(t.part), t.object, tracer, q, counts);
    values->push_back(one.ok() ? one.value()
                               : std::numeric_limits<double>::quiet_NaN());
  };
  const bool traced_first = q % 2 == 1;
  if (traced_first) replay(run.tracer, "replay", &traced_counts, &traced);
  replay(nullptr, "replay.untraced", &untraced_counts, &untraced);
  if (!traced_first) replay(run.tracer, "replay", &traced_counts, &traced);

  if (traced.size() != untraced.size()) return;  // a replay failed
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const std::size_t index = all_objects ? i : target;
    bool ok = SameBits(traced[i], untraced[i]);
    switch (run.spec->query) {
      case Query::kAllExact:
      case Query::kOneSolverExact:
        ok = ok && SameBits(traced[i], answers[i]);
        break;
      case Query::kAllSam:
        ok = ok && SameBits(traced[i], run.reference[index]);
        break;
      case Query::kOneParallelExact:
        // The parallel DFS reassociates its sums, so the serial replay
        // agrees within tolerance, not bit for bit.
        ok = ok && std::fabs(traced[i] - answers[i]) <= kExactTolerance;
        break;
    }
    if (!ok) {
      run.Problem("replay does not reproduce the answer at " +
                  TargetLabel(run, index));
    }
  }
  if (q <= run.count_queries) run.counts.Add(traced_counts);
}

/// One closed-loop query: the timed library call, the checks, and in a
/// traced run the replay.
void RunQuery(RunState& run, std::uint64_t q) {
  ScopedSpan query_span(run.tracer, "query", q);
  const char* call_name = CallSpanName(run.spec->query);
  if (IsAllObjects(run.spec->query)) {
    BatchExactStats exact_stats;
    BatchSamStats sam_stats;
    Result<std::vector<double>> answers = Status::Internal("unset");
    {
      ScopedSpan span(run.tracer, call_name, q);
      CallTimer timer(run);
      answers = CallAllObjects(run, *run.pool, &exact_stats, &sam_stats);
    }
    const std::size_t n = run.instance().data.size();
    if (!answers.ok() || answers.value().size() != n) {
      run.tally.RecordFailedCall(n);
      run.Problem("all-objects call failed: " + answers.status().ToString());
      return;
    }
    if (q == 1) {
      run.first_exact_stats = exact_stats;
      run.first_sam_stats = sam_stats;
    }
    for (ObjectId t = 0; t < n; ++t) {
      Status status;
      if (exact_stats.target_status.size() == n) {
        status = exact_stats.target_status[t];
      }
      CheckTarget(run, t, status, answers.value()[t]);
    }
    if (run.tracer != nullptr) ReplayAndSelfCheck(run, q, answers.value(), 0);
    return;
  }
  const std::size_t k = (q - 1) % run.targets.size();
  Result<double> answer = Status::Internal("unset");
  {
    ScopedSpan span(run.tracer, call_name, q);
    CallTimer timer(run);
    answer = CallOneTarget(run, run.targets[k]);
  }
  const double value =
      answer.ok() ? answer.value() : std::numeric_limits<double>::quiet_NaN();
  CheckTarget(run, k, answer.status(), value);
  if (run.tracer != nullptr) ReplayAndSelfCheck(run, q, {value}, k);
}

Status RunClosedLoop(RunState& run) {
  // One untraced warm-up query outside the window pays for the pool's
  // first dispatch and cold caches; its answers are still checked.
  Tracer* tracer = run.tracer;
  run.tracer = nullptr;
  RunQuery(run, 1);
  run.tracer = tracer;
  run.call_ms.clear();
  run.call_wall_s = 0.0;
  run.call_cpu_s = 0.0;
  run.tally = TargetTally();

  const std::uint64_t min_queries = IsAllObjects(run.spec->query)
                                        ? kMinAllObjectsQueries
                                        : kMinOneTargetQueries;
  const double setup_interval =
      run.config->seconds / static_cast<double>(kMaxSetupReps);
  const auto start = std::chrono::steady_clock::now();
  while (run.queries < min_queries ||
         SecondsSince(start) < run.config->seconds) {
    ++run.queries;
    RunQuery(run, run.queries);
    // Catch up on the set-ups due by now (several after a long query).
    const auto due = static_cast<std::size_t>(SecondsSince(start) /
                                              setup_interval) + 1;
    while (run.setup_s.size() < std::min(due, kMaxSetupReps)) {
      SKYPREF_RETURN_IF_ERROR(TimedSetUp(run));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

void AddMetric(std::vector<Metric>& out, std::string name, double value,
               std::string unit) {
  out.push_back(Metric{std::move(name), value, std::move(unit)});
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Median over queries 1..queries of the summed span time of \p names.
double MedianPerQueryMs(const Tracer& tracer,
                        std::initializer_list<const char*> names,
                        std::uint64_t queries) {
  std::vector<double> total(queries + 1, 0.0);
  for (const char* name : names) {
    std::vector<double> per = tracer.PerQueryMs(name, queries);
    for (std::size_t q = 0; q < per.size(); ++q) total[q] += per[q];
  }
  total.erase(total.begin());  // query 0 is the set-up
  return Median(std::move(total));
}

/// Median over set-ups of the summed duration of span \p name, which
/// occurs once per dataset in each set-up.
double MedianPerSetUpMs(const Tracer& tracer, const char* name,
                        std::size_t parts) {
  const std::vector<double> durations = tracer.DurationsMs(name);
  std::vector<double> per_setup;
  for (std::size_t i = 0; i + parts <= durations.size(); i += parts) {
    per_setup.push_back(std::accumulate(
        durations.begin() + static_cast<std::ptrdiff_t>(i),
        durations.begin() + static_cast<std::ptrdiff_t>(i + parts), 0.0));
  }
  return Median(std::move(per_setup));
}

void EndToEndMetrics(const RunState& run, RunReport& report) {
  const double answered =
      static_cast<double>(run.tally.attempted() - run.tally.failed());
  AddMetric(report.metrics, "setup_s", Median(run.setup_s), "s");
  AddMetric(report.metrics, "query_p50_ms", Median(run.call_ms), "ms");
  AddMetric(report.metrics, "query_p90_ms", Percentile(run.call_ms, 90.0),
            "ms");
  AddMetric(report.metrics, "targets_per_s", Ratio(answered, run.call_wall_s),
            "1/s");
  AddMetric(report.metrics, "peak_rss_mb", PeakRssMb(), "MB");
}

void PerLayerMetrics(const RunState& run, RunReport& report) {
  const Tracer& tracer = *run.tracer;
  const std::uint64_t queries = run.queries;
  const double per_count = static_cast<double>(run.count_queries);
  const ReplayCounts& c = run.counts;
  auto& m = report.metrics;

  AddMetric(m, "io.load_ms", MedianPerSetUpMs(tracer, "io.load",
                                              run.parts.size()),
            "ms");
  AddMetric(m, "io.bytes", static_cast<double>(run.csv_bytes), "bytes");
  AddMetric(m, "model.create_ms",
            MedianPerSetUpMs(tracer, "model.create", run.parts.size()), "ms");

  AddMetric(m, "absorption.ms",
            MedianPerQueryMs(tracer, {"absorption.postings", "absorption"},
                             queries),
            "ms");
  AddMetric(m, "absorption.calls",
            static_cast<double>(c.absorption_calls) / per_count, "count");
  AddMetric(m, "absorption.candidates_in",
            static_cast<double>(c.candidates_in) / per_count, "count");
  AddMetric(m, "absorption.kept_frac",
            Ratio(static_cast<double>(c.kept),
                  static_cast<double>(c.candidates_in)),
            "frac");

  AddMetric(m, "partition.ms", MedianPerQueryMs(tracer, {"partition"}, queries),
            "ms");
  AddMetric(m, "partition.groups", static_cast<double>(c.groups) / per_count,
            "count");
  AddMetric(m, "partition.largest_group", static_cast<double>(c.largest_group),
            "count");

  const double exact_ms = MedianPerQueryMs(tracer, {"exact"}, queries);
  const double group_solves = static_cast<double>(c.group_solves) / per_count;
  const double subsets = static_cast<double>(c.subsets) / per_count;
  AddMetric(m, "exact.ms", exact_ms, "ms");
  AddMetric(m, "exact.group_solves", group_solves, "count");
  AddMetric(m, "exact.subsets", subsets, "count");
  AddMetric(m, "exact.subsets_per_s", Ratio(subsets, exact_ms / 1e3), "1/s");
  AddMetric(m, "exact.us_per_group", Ratio(exact_ms * 1e3, group_solves),
            "us");

  const double call_ms = Median(run.call_ms);
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  AddMetric(m, "pool.threads", static_cast<double>(run.spec->pool_workers),
            "count");
  AddMetric(m, "pool.cpu_util",
            Ratio(run.call_cpu_s, run.call_wall_s * hardware), "frac");
  double speedup = 1.0;  // a workload without a pool runs inline anyway
  if (run.spec->pool_workers > 0) {
    const double inline_ms = IsAllObjects(run.spec->query)
                                 ? run.inline_call_ms
                                 : Median(run.inline_ms);
    speedup = Ratio(inline_ms, call_ms);
  }
  AddMetric(m, "pool.speedup", speedup, "x");

  const BatchSamStats& s = run.first_sam_stats;
  double sam_ms = 0.0;
  if (run.spec->query == Query::kAllSam) {
    // Derived, single-threaded: the inline-pool call minus the serial
    // replay's preprocessing (postings, absorption, partition), which the
    // call performs too. The pooled call cannot be used: its
    // preprocessing runs on 4 threads, the replay's on one.
    sam_ms = run.inline_call_ms -
             MedianPerQueryMs(tracer,
                              {"absorption.postings", "absorption",
                               "partition"},
                              queries);
  }
  const double worlds = static_cast<double>(s.samples);
  AddMetric(m, "sam.ms", sam_ms, "ms");
  AddMetric(m, "sam.worlds", worlds, "count");
  AddMetric(m, "sam.pair_draws", static_cast<double>(s.pair_draws), "count");
  AddMetric(m, "sam.draws_per_world",
            Ratio(static_cast<double>(s.pair_draws), worlds), "count");
  AddMetric(m, "sam.distinct_pairs", static_cast<double>(s.distinct_pairs),
            "count");
  AddMetric(m, "sam.pruned_candidates",
            static_cast<double>(s.pruned_candidates), "count");
  AddMetric(m, "sam.worlds_per_s", Ratio(worlds, sam_ms / 1e3), "1/s");

  const double replay_ms = Median(tracer.DurationsMs("replay"));
  const BatchExactStats& b = run.first_exact_stats;
  AddMetric(m, "batch.ms", call_ms, "ms");
  AddMetric(m, "batch.replay_ms", replay_ms, "ms");
  AddMetric(m, "batch.replay_ratio", Ratio(replay_ms, call_ms), "x");
  AddMetric(m, "batch.distinct_pair_probs",
            static_cast<double>(b.distinct_pair_probs), "count");
  AddMetric(m, "batch.failed_targets", static_cast<double>(run.tally.failed()),
            "count");
  AddMetric(m, "batch.retried_targets", static_cast<double>(b.retried_targets),
            "count");
  AddMetric(m, "batch.salvaged_targets",
            static_cast<double>(b.salvaged_targets), "count");

  const double untraced_ms = Median(tracer.DurationsMs("replay.untraced"));
  AddMetric(m, "trace.overhead_frac", Ratio(replay_ms, untraced_ms) - 1.0,
            "frac");

  AddMetric(report.notes, "count_queries", per_count, "count");
  AddMetric(report.notes, "spans", static_cast<double>(tracer.spans().size()),
            "count");
}

}  // namespace

std::size_t PoolWorkers(const std::string& workload) {
  const Spec* spec = FindSpec(workload);
  return spec == nullptr ? 0 : spec->pool_workers;
}

Result<RunReport> RunWorkload(const RunConfig& config) {
  const Spec* spec = FindSpec(config.workload);
  if (spec == nullptr) {
    return Status::InvalidArgument("unknown workload " + config.workload);
  }
  RunReport report;
  Tracer tracer;
  RunState run;
  run.spec = spec;
  run.config = &config;
  run.tracer = config.trace ? &tracer : nullptr;
  run.report = &report;

  // Inputs from the seed, written to CSV before anything is timed.
  SKYPREF_ASSIGN_OR_RETURN(run.inputs, Generate(*spec, config.seed));
  std::error_code error;
  std::filesystem::create_directories(config.work_dir, error);
  const std::string prefix = config.work_dir + "/" + spec->name + "-seed" +
                             std::to_string(config.seed);
  for (std::size_t i = 0; i < run.inputs.size(); ++i) {
    const std::string path = prefix + "-" + std::to_string(i) + ".csv";
    SKYPREF_RETURN_IF_ERROR(skypref::SaveDatasetFile(
        path, run.inputs[i].data, run.inputs[i].domain));
    run.csv_bytes += std::filesystem::file_size(path, error);
    run.csv_paths.push_back(path);
  }

  SKYPREF_RETURN_IF_ERROR(TimedSetUp(run));
  for (std::size_t i = 0; i < run.parts.size(); ++i) {
    const Dataset& loaded = run.instance(i).data;
    const Dataset& generated = run.inputs[i].data;
    bool same = loaded.size() == generated.size();
    for (ObjectId t = 0; same && t < loaded.size(); ++t) {
      same = std::equal(loaded.object(t).begin(), loaded.object(t).end(),
                        generated.object(t).begin());
    }
    if (!same) run.Problem("CSV round trip changed dataset " + std::to_string(i));
  }

  SKYPREF_RETURN_IF_ERROR(ComputeReferences(run));
  run.pool = std::make_unique<ThreadPool>(spec->pool_workers);
  run.count_queries = IsAllObjects(spec->query)
                          ? 1
                          : std::min<std::uint64_t>(run.targets.size(),
                                                    kMinOneTargetQueries);
  SKYPREF_RETURN_IF_ERROR(RunClosedLoop(run));

  if (config.trace) {
    if (IsAllObjects(spec->query)) {
      // pool.speedup (and sam.ms): the same call on an inline pool.
      ThreadPool inline_pool(0);
      const auto start = std::chrono::steady_clock::now();
      Result<std::vector<double>> inline_answers =
          CallAllObjects(run, inline_pool, nullptr, nullptr);
      run.inline_call_ms = SecondsSince(start) * 1e3;
      if (!inline_answers.ok()) {
        run.Problem("inline-pool call failed: " +
                    inline_answers.status().ToString());
      }
    }
    PerLayerMetrics(run, report);
    SKYPREF_RETURN_IF_ERROR(
        tracer.WriteChromeTrace(prefix + ".trace.json", 1));
  } else {
    EndToEndMetrics(run, report);
  }
  report.attempted = run.tally.attempted();
  report.failed = run.tally.failed();
  AddMetric(report.notes, "queries", static_cast<double>(run.queries),
            "count");
  AddMetric(report.notes, "setup_reps",
            static_cast<double>(run.setup_s.size()), "count");
  AddMetric(report.notes, "failed_frac", run.tally.failed_frac(), "frac");
  return report;
}

}  // namespace perfbench
