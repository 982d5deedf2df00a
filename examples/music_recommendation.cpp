// Music catalogue with probabilistic-skyline recommendation.
//
// The paper's other motivating scenario: "a music fan prefers Mozart's
// brisk minuet while another may like Beethoven's pastoral symphony" —
// preferences over categorical attributes (composer era, tempo, mood)
// differ across listeners. A streaming service can model listener
// preferences as probabilities and surface the probabilistic skyline:
// recordings whose skyline probability clears a threshold tau.
//
// The example exercises the shared-world batch estimator (the
// all-objects extension of the paper's future-work section), the
// probabilistic skyline query, and the top-k ranking.

#include <cstdio>
#include <string>
#include <vector>

#include "src/skypref.h"

int main() {
  using namespace skypref;

  // Attributes: era, tempo, mood.
  Domain domain({"era", "tempo", "mood"});
  const char* eras[] = {"baroque", "classical", "romantic", "modern"};
  const char* tempos[] = {"brisk", "moderate", "slow"};
  const char* moods[] = {"bright", "pastoral", "stormy"};
  for (const char* v : eras) domain.InternValue(0, v).value();
  for (const char* v : tempos) domain.InternValue(1, v).value();
  for (const char* v : moods) domain.InternValue(2, v).value();

  struct Track {
    const char* name;
    ValueId era, tempo, mood;
  };
  const Track tracks[] = {
      {"Mozart: Minuet in G", 1, 0, 0},
      {"Beethoven: Pastoral Symphony", 1, 1, 1},
      {"Bach: Brandenburg No.3", 0, 0, 0},
      {"Chopin: Nocturne Op.9", 2, 2, 1},
      {"Vivaldi: Summer Presto", 0, 0, 2},
      {"Brahms: Symphony No.1", 2, 1, 2},
      {"Glass: Metamorphosis", 3, 2, 1},
      {"Mozart: Requiem Dies Irae", 1, 0, 2},
      {"Debussy: Clair de Lune", 3, 2, 0},
      {"Haydn: Surprise Symphony", 1, 1, 0},
  };

  Dataset data(3);
  for (const Track& track : tracks) {
    data.Append({track.era, track.tempo, track.mood}).CheckOK();
  }

  // Listener survey turned into preference probabilities. Pairs left
  // unset use the even default (0.5, 0.5).
  TablePreferenceModel prefs;
  prefs.Set(0, 1, 0, 0.60, 0.40).CheckOK();  // classical vs baroque
  prefs.Set(0, 1, 2, 0.55, 0.45).CheckOK();  // classical vs romantic
  prefs.Set(0, 1, 3, 0.65, 0.35).CheckOK();  // classical vs modern
  prefs.Set(0, 2, 3, 0.55, 0.35).CheckOK();  // 10% undecided
  prefs.Set(1, 0, 2, 0.70, 0.30).CheckOK();  // brisk vs slow
  prefs.Set(1, 0, 1, 0.60, 0.40).CheckOK();  // brisk vs moderate
  prefs.Set(1, 1, 2, 0.60, 0.40).CheckOK();  // moderate vs slow
  prefs.Set(2, 0, 2, 0.65, 0.25).CheckOK();  // bright vs stormy
  prefs.Set(2, 1, 2, 0.60, 0.30).CheckOK();  // pastoral vs stormy

  // Per-track exact skyline probability (Det+) next to the shared-world
  // estimate, demonstrating that one world stream prices the whole
  // catalogue at once.
  auto solver = SkylineSolver::Create(data, prefs).value();
  ThreadPool pool(0);  // inline; any thread count gives the same numbers
  SolverOptions mc;
  mc.monte_carlo.engine = MonteCarloOptions::Engine::kBitSliced;
  mc.monte_carlo.samples = 60000;
  mc.monte_carlo.seed = 2013;
  std::vector<double> estimates =
      BatchMonteCarloSkylineProbabilities(data, prefs, pool, mc).value();

  std::printf("%-32s %10s %10s\n", "track", "exact", "sampled");
  for (ObjectId i = 0; i < data.size(); ++i) {
    double exact = solver.Exact(i).value();
    std::printf("%-32s %10.4f %10.4f\n", tracks[i].name, exact,
                estimates[i]);
  }

  const double tau = 0.25;
  auto skyline = ProbabilisticSkyline(data, prefs, tau, pool, mc).value();
  std::printf("\nProbabilistic skyline (tau = %.2f):\n", tau);
  for (ObjectId id : skyline) std::printf("  %s\n", tracks[id].name);

  auto top = TopKSkyline(data, prefs, 3, pool, mc).value();
  std::printf("\nTop-3 recommendations:\n");
  for (const auto& [id, score] : top) {
    std::printf("  %-32s %.4f\n", tracks[id].name, score);
  }
  return 0;
}
