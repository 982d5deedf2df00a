#include "src/util/failpoint.h"

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "src/util/hash.h"
#include "src/util/thread_annotations.h"

namespace skypref {
namespace failpoint {

namespace {

/// The canonical registry of every SKYPREF_*FAILPOINT site literal
/// compiled into the tree. The seeded scheduler arms from this table,
/// the coverage suite asserts every entry is consulted, and the
/// `failpoint-site` lint rule parses it (one `{"name", SiteClass::...}`
/// entry per line — keep that shape) to reject unregistered literals.
constexpr KnownSite kKnownSites[] = {
    {"exact.dfs", SiteClass::kExecution},
    {"lineage.state", SiteClass::kExecution},
    {"sampler.world", SiteClass::kExecution},
    {"sampler.block", SiteClass::kExecution},
    {"batch.target", SiteClass::kExecution},
    {"batch.retry", SiteClass::kExecution},
    {"threadpool.serial", SiteClass::kExecution},
    {"threadpool.wait", SiteClass::kWait},
    {"alloc.exact.flat_instance", SiteClass::kAllocation},
    {"alloc.sam.instance", SiteClass::kAllocation},
    {"alloc.sam.slice_arena", SiteClass::kAllocation},
    {"alloc.sam.batch_plan", SiteClass::kAllocation},
    {"alloc.batch.partition", SiteClass::kAllocation},
};

/// One arming of one site. Immutable after construction except for the
/// hit counter: re-arming publishes a FRESH Armed object instead of
/// mutating this one, so threads that already snapshotted it keep
/// charging a counter whose countdown can no longer fire a stale
/// schedule, and the new arming's "fires on hit n" contract starts from
/// a counter no concurrent hit has touched.
struct Armed {
  explicit Armed(const Schedule& s) : schedule(s) {}
  const Schedule schedule;
  std::atomic<std::uint64_t> hits{0};
};

struct Registry {
  Mutex mutex;
  std::map<std::string, std::shared_ptr<Armed>> sites
      SKYPREF_GUARDED_BY(mutex);
  std::map<std::string, std::uint64_t> coverage SKYPREF_GUARDED_BY(mutex);
};

Registry& GetRegistry() {
  // Leaked singleton: failpoints may be consulted during static
  // destruction of test fixtures; never destroy the registry.
  static Registry* registry = new Registry();
  return *registry;
}

/// Count of armed sites. The unarmed fast path in Hit() is one relaxed
/// load of this counter — no lock, no map lookup — so instrumented
/// builds pay nothing measurable while no test is injecting faults.
std::atomic<int> g_armed{0};

/// Coverage accounting toggle; checked on the same fast path.
std::atomic<bool> g_coverage{false};

/// Process-cumulative count of injected faults (see FiredCount()).
std::atomic<std::uint64_t> g_fired{0};

/// FNV-1a over the site name: folds the name into the seeded-schedule
/// derivation so each site rolls independently from one seed.
std::uint64_t Fnv1a(const char* s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (; *s != '\0'; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Whether hit ordinal \p hit (1-based) fires under \p s. Pure: no state
/// beyond the ordinal, so the firing set of a schedule is deterministic.
bool ShouldFire(const Schedule& s, std::uint64_t hit) {
  switch (s.pattern) {
    case Schedule::Pattern::kSingle:
      return hit == s.n;
    case Schedule::Pattern::kPeriodic:
      return s.n != 0 && hit % s.n == s.phase % s.n;
    case Schedule::Pattern::kProbabilistic:
      return HashMix(s.salt ^ hit) < s.threshold;
  }
  return false;
}

/// Shared body of Hit / AllocHit: charge one hit against the site's
/// current arming and decide whether it fires a \p want_kind fault.
/// kDelay schedules fire at either consult kind — they sleep, count as
/// an injected fault, and then report "did not fire" so results are
/// unchanged. Lock discipline: the registry lock covers only the
/// shared_ptr snapshot (and coverage bump); the hit accounting and the
/// sleep run lock-free on the snapshot, so a concurrent re-arm can
/// proceed at any time without waiting for mid-site threads.
bool Consult(const char* site, FaultKind want_kind) {
  const bool coverage = g_coverage.load(std::memory_order_relaxed);
  if (g_armed.load(std::memory_order_relaxed) == 0 && !coverage) return false;
  std::shared_ptr<Armed> armed;
  {
    Registry& registry = GetRegistry();
    MutexLock lock(registry.mutex);
    if (coverage) ++registry.coverage[site];
    auto it = registry.sites.find(site);
    if (it != registry.sites.end()) armed = it->second;
  }
  if (armed == nullptr) return false;
  const std::uint64_t hit =
      armed->hits.fetch_add(1, std::memory_order_relaxed) + 1;
  const Schedule& s = armed->schedule;
  if (s.kind != want_kind && s.kind != FaultKind::kDelay) return false;
  if (!ShouldFire(s, hit)) return false;
  g_fired.fetch_add(1, std::memory_order_relaxed);
  if (s.kind == FaultKind::kDelay) {
    std::this_thread::sleep_for(std::chrono::microseconds(s.delay_micros));
    return false;
  }
  return true;
}

}  // namespace

std::span<const KnownSite> KnownSites() { return kKnownSites; }

void Arm(const char* site, std::uint64_t fire_on_hit) {
  Schedule s;
  s.kind = FaultKind::kFail;
  s.pattern = Schedule::Pattern::kSingle;
  s.n = fire_on_hit == 0 ? 1 : fire_on_hit;
  ArmSchedule(site, s);
}

void ArmSchedule(const char* site, const Schedule& schedule) {
  // A fresh Armed per arming is the atomic-publication fix: replacing
  // the map's shared_ptr swaps schedule AND counter in one step, so a
  // re-arm racing threads mid-site can neither inherit their pending
  // counts nor hand them a half-reset countdown.
  auto fresh = std::make_shared<Armed>(schedule);
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);
  auto [it, inserted] = registry.sites.insert_or_assign(site, std::move(fresh));
  (void)it;
  if (inserted) g_armed.fetch_add(1, std::memory_order_relaxed);
}

std::size_t ArmSeededSchedule(std::uint64_t seed) {
  DisarmAll();
  std::size_t count = 0;
  for (const KnownSite& site : kKnownSites) {
    const std::uint64_t s = HashMix(seed ^ Fnv1a(site.name));
    const std::uint64_t roll = s % 16;
    const std::uint64_t a = HashMix(s + 1);
    const std::uint64_t b = HashMix(s + 2);
    Schedule schedule;
    bool arm = true;
    switch (site.cls) {
      case SiteClass::kExecution:
        if (roll < 4) {
          schedule.kind = FaultKind::kFail;
          schedule.pattern = Schedule::Pattern::kSingle;
          schedule.n = 1 + a % 1024;
        } else if (roll < 7) {
          schedule.kind = FaultKind::kFail;
          schedule.pattern = Schedule::Pattern::kPeriodic;
          schedule.n = 128 + a % 2048;
          schedule.phase = b % schedule.n;
        } else if (roll < 9) {
          schedule.kind = FaultKind::kFail;
          schedule.pattern = Schedule::Pattern::kProbabilistic;
          schedule.salt = a;
          // Expected firing rate between 1/64 and 1/1024 of hits.
          schedule.threshold = ~0ULL / (64ULL << (b % 5));
        } else if (roll < 12) {
          schedule.kind = FaultKind::kDelay;
          schedule.pattern = Schedule::Pattern::kPeriodic;
          schedule.n = 64 + a % 512;
          schedule.phase = b % schedule.n;
          schedule.delay_micros = static_cast<std::uint32_t>(50 + b % 1500);
        } else {
          arm = false;
        }
        break;
      case SiteClass::kAllocation:
        if (roll < 6) {
          schedule.kind = FaultKind::kAllocFail;
          schedule.pattern = Schedule::Pattern::kSingle;
          schedule.n = 1 + a % 4;
        } else if (roll < 9) {
          schedule.kind = FaultKind::kAllocFail;
          schedule.pattern = Schedule::Pattern::kPeriodic;
          schedule.n = 2 + a % 6;
          schedule.phase = b % schedule.n;
        } else if (roll < 11) {
          schedule.kind = FaultKind::kDelay;
          schedule.pattern = Schedule::Pattern::kSingle;
          schedule.n = 1 + a % 4;
          schedule.delay_micros = static_cast<std::uint32_t>(50 + b % 1500);
        } else {
          arm = false;
        }
        break;
      case SiteClass::kWait:
        if (roll < 8) {
          schedule.kind = FaultKind::kSpuriousWake;
          schedule.pattern = Schedule::Pattern::kPeriodic;
          schedule.n = 1;  // every consult finds the storm armed
        } else {
          arm = false;
        }
        break;
    }
    if (arm) {
      ArmSchedule(site.name, schedule);
      ++count;
    }
  }
  return count;
}

void Disarm(const char* site) {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);
  if (registry.sites.erase(site) > 0) {
    g_armed.fetch_sub(1, std::memory_order_relaxed);
  }
}

void DisarmAll() {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);
  g_armed.fetch_sub(static_cast<int>(registry.sites.size()),
                    std::memory_order_relaxed);
  registry.sites.clear();
}

std::size_t ArmedCount() {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);
  return registry.sites.size();
}

std::uint64_t HitCount(const char* site) {
  std::shared_ptr<Armed> armed;
  {
    Registry& registry = GetRegistry();
    MutexLock lock(registry.mutex);
    auto it = registry.sites.find(site);
    if (it == registry.sites.end()) return 0;
    armed = it->second;
  }
  return armed->hits.load(std::memory_order_relaxed);
}

std::uint64_t FiredCount() { return g_fired.load(std::memory_order_relaxed); }

bool Hit(const char* site) { return Consult(site, FaultKind::kFail); }

bool AllocHit(const char* site) {
  return Consult(site, FaultKind::kAllocFail);
}

bool WakeStormArmed(const char* site) {
  return Consult(site, FaultKind::kSpuriousWake);
}

void EnableCoverage(bool enabled) {
  g_coverage.store(enabled, std::memory_order_relaxed);
}

std::uint64_t CoverageCount(const char* site) {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);
  auto it = registry.coverage.find(site);
  return it == registry.coverage.end() ? 0 : it->second;
}

void ResetCoverage() {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mutex);
  registry.coverage.clear();
}

}  // namespace failpoint
}  // namespace skypref
