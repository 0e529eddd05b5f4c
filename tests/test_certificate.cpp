// Proof-carrying capacity certificates and their independent checker.
//
// The load-bearing properties:
//  * Soundness of the pair: every certificate the analysis emits passes
//    the checker — across the published MP3 case study, every randomized
//    sweep class, both constraint placements, faulted/headroom variants,
//    and every state the incremental engine renders (zero false
//    rejections).
//  * Mutation coverage: perturbing any single field of a valid
//    certificate is detected, and the violation names the right clause
//    family and the right edge or actor.  A checker that misses a
//    mutation class is re-deriving less than it claims.
//  * Fleet integration: certify-mode reports keep the canonical-bytes
//    guarantee across thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/admission.hpp"
#include "analysis/buffer_sizing.hpp"
#include "analysis/certificate.hpp"
#include "analysis/checker.hpp"
#include "analysis/incremental.hpp"
#include "analysis/snapshot.hpp"
#include "models/mp3.hpp"
#include "models/synthetic.hpp"
#include "sim/fleet.hpp"
#include "util/error.hpp"

namespace vrdf {
namespace {

using analysis::Certificate;
using analysis::CertificateCheck;
using analysis::CheckerOptions;
using analysis::ClauseKind;
using analysis::ClauseViolation;
using analysis::ConstraintSide;
using analysis::GraphAnalysis;
using analysis::ThroughputConstraint;
using dataflow::ActorId;
using dataflow::RateSet;

// True when some violation matches the expected clause family and its
// subject mentions `where` (an actor or edge name; empty = any subject).
[[nodiscard]] bool names(const CertificateCheck& check, ClauseKind kind,
                         const std::string& where) {
  for (const ClauseViolation& violation : check.violations) {
    if (violation.kind == kind &&
        (where.empty() ||
         violation.subject.find(where) != std::string::npos)) {
      return true;
    }
  }
  return false;
}

[[nodiscard]] std::string render(const CertificateCheck& check) {
  std::string out;
  for (const ClauseViolation& violation : check.violations) {
    out += "  " + describe(violation) + "\n";
  }
  return out.empty() ? "  (no violations)" : out;
}

// ------------------------------------------------------------ MP3 anchor

TEST(Certificate, Mp3EmitsAndChecksCleanWithPublishedCapacities) {
  models::Mp3Playback mp3 = models::make_mp3_playback();
  const GraphAnalysis sized = analysis::compute_buffer_capacities(
      mp3.graph, analysis::ConstraintSet{mp3.constraint});
  ASSERT_TRUE(sized.admissible);
  const Certificate cert = analysis::make_certificate(mp3.graph, sized);

  // The certificate transcribes the published numbers bit-for-bit.
  ASSERT_EQ(cert.pairs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(cert.pairs[i].capacity,
              models::Mp3PaperNumbers::kVrdfCapacities[i]);
  }
  EXPECT_EQ(cert.total_capacity, 6015 + 3263 + 882);
  EXPECT_EQ(cert.actors.size(), 4u);

  const CertificateCheck check =
      analysis::check_certificate(mp3.graph, cert);
  EXPECT_TRUE(check.ok) << render(check);
  EXPECT_TRUE(check.violations.empty());
  EXPECT_EQ(check.clauses_checked, 95u);
  EXPECT_TRUE(check.first_violation().empty());
}

// Clean certificates of every generator class check an exact number of
// clauses: the clause catalogue is part of the checker's contract.
TEST(Certificate, CleanCertificatesCheckAnExactClauseCount) {
  struct Expected {
    models::ModelClass model_class;
    bool source_constrained;
    std::uint64_t clauses;
  };
  const Expected cases[] = {
      {models::ModelClass::Chain, false, 99},
      {models::ModelClass::ForkJoin, false, 231},
      {models::ModelClass::Cyclic, false, 250},
      {models::ModelClass::MultiConstraint, false, 74},
      {models::ModelClass::InteriorPinned, false, 126},
      {models::ModelClass::Chain, true, 99},
      {models::ModelClass::ForkJoin, true, 233},
      {models::ModelClass::Cyclic, true, 252},
  };
  for (const Expected& expected : cases) {
    SCOPED_TRACE(std::string(models::class_name(expected.model_class)) +
                 (expected.source_constrained ? " source" : " sink"));
    models::RandomModelSpec spec;
    spec.model_class = expected.model_class;
    spec.seed = 5;
    spec.source_constrained = expected.source_constrained;
    const models::SyntheticModel model = models::make_random_model(spec);
    const GraphAnalysis sized =
        analysis::compute_buffer_capacities(model.graph, model.constraints);
    ASSERT_TRUE(sized.admissible);
    const CertificateCheck check = analysis::check_certificate(
        model.graph, analysis::make_certificate(model.graph, sized));
    EXPECT_TRUE(check.ok) << render(check);
    EXPECT_EQ(check.clauses_checked, expected.clauses);
  }
}

// Witnesses whose exact products overflow int64 make the checker's
// arithmetic throw mid-run; that is an invalid certificate, reported as
// a Coverage violation after the clauses already found, never a throw.
TEST(Certificate, ArithmeticOverflowIsReportedAsAViolation) {
  models::Mp3Playback mp3 = models::make_mp3_playback();
  const GraphAnalysis sized = analysis::compute_buffer_capacities(
      mp3.graph, analysis::ConstraintSet{mp3.constraint});
  ASSERT_TRUE(sized.admissible);
  Certificate cert = analysis::make_certificate(mp3.graph, sized);
  cert.actors[1].phi =
      Duration(Rational(1, (std::int64_t{1} << 61) - 1));  // 2^61 - 1
  cert.actors[2].phi =
      Duration(Rational(1, (std::int64_t{1} << 31) - 1));  // 2^31 - 1

  CertificateCheck check;
  ASSERT_NO_THROW(check = analysis::check_certificate(mp3.graph, cert));
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.clauses_checked, 65u);
  ASSERT_EQ(check.violations.size(), 3u);
  EXPECT_EQ(describe(check.violations[0]),
            "phi clause violated at actor 'vMP3': response time exceeds the "
            "pacing witness; no valid schedule exists at the required rate "
            "(3/125 s vs 1/2305843009213693951 s)");
  EXPECT_EQ(describe(check.violations[1]),
            "phi clause violated at actor 'vSRC': response time exceeds the "
            "pacing witness; no valid schedule exists at the required rate "
            "(1/100 s vs 1/2147483647 s)");
  EXPECT_EQ(describe(check.violations[2]),
            "coverage clause violated at certificate: arithmetic failure "
            "while checking: rational overflow in multiplication");
}

TEST(Certificate, RefusesInadmissibleAndPreLeadShapes) {
  models::Mp3Playback mp3 = models::make_mp3_playback();
  const GraphAnalysis sized = analysis::compute_buffer_capacities(
      mp3.graph, analysis::ConstraintSet{mp3.constraint});
  GraphAnalysis inadmissible = sized;
  inadmissible.admissible = false;
  EXPECT_THROW((void)analysis::make_certificate(mp3.graph, inadmissible),
               Error);
  GraphAnalysis leadless = sized;
  leadless.leads.clear();
  EXPECT_THROW((void)analysis::make_certificate(mp3.graph, leadless), Error);
}

// -------------------------------------------------------- mutation suite

/// Fixture helpers: a valid (model, analysis, certificate) triple plus
/// the assertion that a mutated copy is rejected with the right clause
/// kind at the right subject.
struct Mutation {
  const char* label;
  ClauseKind kind;
  std::string where;  // substring the violation subject must contain
  void (*apply)(Certificate&);
  // The exact diagnosis: violation count, clauses checked, and the
  // describe() text of the first violation, byte for byte.
  std::size_t violations;
  std::uint64_t clauses;
  const char* first;
};

void expect_detected(const dataflow::VrdfGraph& graph,
                     const Certificate& cert, const Mutation& mutation) {
  Certificate mutated = cert;
  mutation.apply(mutated);
  const CertificateCheck check =
      analysis::check_certificate(graph, mutated);
  EXPECT_FALSE(check.ok) << mutation.label << ": mutation undetected";
  EXPECT_TRUE(names(check, mutation.kind, mutation.where))
      << mutation.label << ": expected a "
      << analysis::clause_kind_name(mutation.kind) << " violation at '"
      << mutation.where << "', got:\n"
      << render(check);
  EXPECT_EQ(check.first_violation(), mutation.first) << mutation.label;
  EXPECT_EQ(check.violations.size(), mutation.violations) << mutation.label;
  EXPECT_EQ(check.clauses_checked, mutation.clauses) << mutation.label;
}

// The MP3 model's certificate: actors vBR(0) vMP3(1) vSRC(2) vDAC(3) in
// topological order; pairs b1(0) b2(1) b3(2); one sink-kind constraint
// at vDAC.  Every field of every fact family is perturbed.
TEST(CertificateMutations, EveryClauseFamilyIsDetectedAndNamed) {
  models::Mp3Playback mp3 = models::make_mp3_playback();
  const GraphAnalysis sized = analysis::compute_buffer_capacities(
      mp3.graph, analysis::ConstraintSet{mp3.constraint});
  ASSERT_TRUE(sized.admissible);
  const Certificate cert = analysis::make_certificate(mp3.graph, sized);

  const Mutation mutations[] = {
      // ---- φ clauses
      {"phi bumped on an interior actor", ClauseKind::Phi, "vMP3",
       [](Certificate& c) { c.actors[1].phi += Duration(Rational(1, 7)); },
       7, 95,
       "phi clause violated at buffer 'vBR -> vMP3': producer pacing witness "
       "does not equal the sink-side demand phi(consumer) * pi_min / "
       "gamma_max (32/625 s vs 4672/13125 s)"},
      {"phi zeroed", ClauseKind::Phi, "vBR",
       [](Certificate& c) { c.actors[0].phi = Duration(); },
       3, 95,
       "phi clause violated at actor 'vBR': pacing witness must be positive "
       "(0 s vs > 0 s)"},
      {"constraint period moved off the anchor's phi", ClauseKind::Phi,
       "vDAC",
       [](Certificate& c) {
         c.constraints[0].period += Duration(Rational(1, 100000));
       },
       1, 95,
       "phi clause violated at actor 'vDAC': a constrained actor's pacing "
       "witness must equal its period (1/44100 s vs 1441/44100000 s)"},
      {"rho raised above phi", ClauseKind::Phi, "vSRC",
       [](Certificate& c) { c.actors[2].rho = c.actors[2].phi * Rational(2); },
       9, 95,
       "coverage clause violated at actor 'vSRC': recorded response time does "
       "not match the graph's rho (1/50 s vs 1/100 s)"},
      // ---- ω clauses
      {"lead bumped on an interior actor", ClauseKind::Omega, "vMP3",
       [](Certificate& c) { c.actors[1].lead += Duration(Rational(1, 9)); },
       5, 95,
       "omega clause violated at actor 'vBR': alignment lead does not satisfy "
       "the sink-region longest-path equation omega = rho + "
       "max(omega(consumer) + s*(pi_max-1)) (1201859/7056000 s vs "
       "220651/784000 s)"},
      {"anchor lead made nonzero", ClauseKind::Omega, "vDAC",
       [](Certificate& c) { c.actors[3].lead = Duration(Rational(1, 2)); },
       2, 95,
       "omega clause violated at actor 'vSRC': alignment lead does not "
       "satisfy the sink-region longest-path equation omega = rho + "
       "max(omega(consumer) + s*(pi_max-1)) (881/44100 s vs 22931/44100 s)"},
      // ---- ζ clauses
      {"delta_producer perturbed", ClauseKind::Zeta, "vBR -> vMP3",
       [](Certificate& c) {
         c.pairs[0].delta_producer += Duration(Rational(1, 3));
       },
       1, 95,
       "zeta clause violated at buffer 'vBR -> vMP3': producer slack does not "
       "equal max(alignment gap, rho + s*(pi_max-1)) (10457/24000 s vs "
       "819/8000 s)"},
      {"delta_consumer perturbed", ClauseKind::Zeta, "vMP3 -> vSRC",
       [](Certificate& c) {
         c.pairs[1].delta_consumer += Duration(Rational(1, 3));
       },
       1, 95,
       "zeta clause violated at buffer 'vMP3 -> vSRC': consumer slack does "
       "not equal rho + s*(gamma_max-1) (5653/16000 s vs 959/48000 s)"},
      {"raw_tokens perturbed", ClauseKind::Zeta, "vSRC -> vDAC",
       [](Certificate& c) { c.pairs[2].raw_tokens += Rational(1, 2); },
       1, 95,
       "zeta clause violated at buffer 'vSRC -> vDAC': raw token count does "
       "not equal (delta_producer + delta_consumer) / s (1765/2 vs 882)"},
      {"tight_rounding claim flipped on", ClauseKind::Zeta, "vBR -> vMP3",
       [](Certificate& c) { c.pairs[0].tight_rounding = true; },
       1, 95,
       "zeta clause violated at buffer 'vBR -> vMP3': recorded tight-rounding "
       "claim does not match the static-and-adjacent-to-anchor predicate "
       "(tight vs padded)"},
      {"tight_rounding claim flipped off", ClauseKind::Zeta, "vSRC -> vDAC",
       [](Certificate& c) { c.pairs[2].tight_rounding = false; },
       1, 95,
       "zeta clause violated at buffer 'vSRC -> vDAC': recorded "
       "tight-rounding claim does not match the static-and-adjacent-to-anchor "
       "predicate (padded vs tight)"},
      {"capacity shaved by one container", ClauseKind::Zeta, "vBR -> vMP3",
       [](Certificate& c) {
         c.pairs[0].capacity -= 1;
         c.total_capacity -= 1;  // keep the sum consistent — the per-pair
                                 // equation alone must catch it
       },
       1, 95,
       "zeta clause violated at buffer 'vBR -> vMP3': capacity does not equal "
       "the rounded slack plus the initial tokens (6014 vs 6015)"},
      {"total_capacity inflated", ClauseKind::Zeta, "certificate",
       [](Certificate& c) { c.total_capacity += 1; },
       1, 95,
       "zeta clause violated at certificate: total capacity does not equal "
       "the sum of the pair capacities (10161 vs 10160)"},
      {"rounding mode swapped to PaperLiteral", ClauseKind::Zeta,
       "vSRC -> vDAC",
       [](Certificate& c) {
         // b3 is the tight pair (x integral): ⌊x⌋+1 would buy one extra
         // container, so the recorded 882 no longer matches.
         c.rounding = analysis::RoundingMode::PaperLiteral;
       },
       1, 95,
       "zeta clause violated at buffer 'vSRC -> vDAC': capacity does not "
       "equal the rounded slack plus the initial tokens (882 vs 883)"},
      // ---- δ clauses
      {"cycle requirement invented on a skeleton pair", ClauseKind::Delta,
       "vMP3 -> vSRC",
       [](Certificate& c) { c.pairs[1].required_initial_tokens = 2; },
       1, 95,
       "delta clause violated at buffer 'vMP3 -> vSRC': skeleton pairs have "
       "no cycle token requirement (2 vs 0)"},
      // ---- coverage clauses
      {"side flipped to Source", ClauseKind::Coverage, "vSRC -> vDAC",
       [](Certificate& c) { c.pairs[2].side = ConstraintSide::Source; },
       1, 95,
       "coverage clause violated at buffer 'vSRC -> vDAC': recorded "
       "rate-determining side does not match the anchor reachability of the "
       "edge's endpoints (Source vs Sink)"},
      {"variable pair claimed static", ClauseKind::Coverage, "vBR -> vMP3",
       [](Certificate& c) { c.pairs[0].is_static = true; },
       1, 95,
       "coverage clause violated at buffer 'vBR -> vMP3': recorded staticness "
       "does not match the edge's rate sets (pi={2048}, gamma=[0,960]) "
       "(static vs variable)"},
      {"static pair claimed variable", ClauseKind::Coverage, "vMP3 -> vSRC",
       [](Certificate& c) { c.pairs[1].is_static = false; },
       1, 95,
       "coverage clause violated at buffer 'vMP3 -> vSRC': recorded "
       "staticness does not match the edge's rate sets (pi={1152}, "
       "gamma={480}) (variable vs static)"},
      {"acyclic edge claimed as feedback", ClauseKind::Coverage,
       "vMP3 -> vSRC",
       [](Certificate& c) { c.pairs[1].is_feedback = true; },
       9, 96,
       "coverage clause violated at buffer 'vMP3 -> vSRC': pair is recorded "
       "as a feedback back-edge but lies on no directed cycle of the data "
       "edges"},
      {"pair endpoints swapped", ClauseKind::Coverage, "",
       [](Certificate& c) {
         std::swap(c.pairs[0].producer, c.pairs[0].consumer);
       },
       1, 17,
       "coverage clause violated at buffer 'vMP3 -> vBR': pair fact endpoints "
       "do not match the recorded data edge"},
      {"pair fact pointed at its buffer's space edge", ClauseKind::Coverage,
       "",
       [](Certificate& c) {
         // Reversed endpoints match the space edge, so the pair passes
         // the endpoint check and its data edge is left without a fact.
         std::swap(c.pairs[0].producer, c.pairs[0].consumer);
         c.pairs[0].buffer.data = c.pairs[0].buffer.space;
       },
       1, 25,
       "coverage clause violated at certificate: buffer vBR -> vMP3 has no "
       "pair fact"},
      {"duplicate actor fact", ClauseKind::Coverage, "",
       [](Certificate& c) { c.actors[0].actor = c.actors[1].actor; },
       1, 5,
       "coverage clause violated at actor 'vMP3': duplicate actor fact"},
      {"duplicate pair fact", ClauseKind::Coverage, "",
       [](Certificate& c) { c.pairs[0].buffer = c.pairs[1].buffer; },
       1, 17,
       "coverage clause violated at buffer 'vBR -> vMP3': pair fact endpoints "
       "do not match the recorded data edge"},
      {"anchor kind vector flipped", ClauseKind::Coverage, "vDAC",
       [](Certificate& c) { c.constraint_is_sink_kind[0] = false; },
       1, 95,
       "coverage clause violated at actor 'vDAC': recorded anchor kind does "
       "not match the skeleton structure (not sink-kind vs sink-kind)"},
      {"recorded rho unbound from the graph", ClauseKind::Coverage, "vMP3",
       [](Certificate& c) { c.actors[1].rho += Duration(Rational(1, 5)); },
       9, 95,
       "coverage clause violated at actor 'vMP3': recorded response time does "
       "not match the graph's rho (28/125 s vs 3/125 s)"},
      {"recorded delta unbound from the graph", ClauseKind::Coverage,
       "vBR -> vMP3",
       [](Certificate& c) { c.pairs[0].initial_tokens += 1; },
       2, 95,
       "coverage clause violated at buffer 'vBR -> vMP3': recorded initial "
       "tokens do not match the graph's delta (1 vs 0)"},
      {"skeleton order reversed", ClauseKind::Coverage, "",
       [](Certificate& c) { std::swap(c.actors[0], c.actors[3]); },
       2, 36,
       "coverage clause violated at buffer 'vBR -> vMP3': skeleton data edge "
       "goes backward in the recorded topological order (the claimed skeleton "
       "is not acyclic in this order) (3 vs 1)"},
      {"constraint actor repointed", ClauseKind::Phi, "vSRC",
       [](Certificate& c) {
         c.constraints[0].actor = c.actors[2].actor;  // vSRC: φ ≠ τ there
       },
       7, 95,
       "coverage clause violated at actor 'vSRC': recorded anchor kind does "
       "not match the skeleton structure (not source-kind vs source-kind)"},
      {"negative constraint period", ClauseKind::Phi, "vDAC",
       [](Certificate& c) {
         c.constraints[0].period = Duration(Rational(-1, 44100));
       },
       2, 95,
       "phi clause violated at actor 'vDAC': throughput period must be "
       "positive (-1/44100 s vs > 0 s)"},
  };
  for (const Mutation& mutation : mutations) {
    SCOPED_TRACE(mutation.label);
    expect_detected(mp3.graph, cert, mutation);
  }
}

// Feedback δ clauses need a cyclic model: perturb the recorded cycle
// bound and starve the circulating tokens on a generated cyclic graph.
TEST(CertificateMutations, FeedbackDeltaClausesDetectedOnCyclicModels) {
  bool exercised = false;
  for (std::uint64_t seed = 1; seed <= 20 && !exercised; ++seed) {
    models::RandomModelSpec spec;
    spec.model_class = models::ModelClass::Cyclic;
    spec.seed = seed;
    models::SyntheticModel model = models::make_random_model(spec);
    const GraphAnalysis sized = analysis::compute_buffer_capacities(
        model.graph, model.constraints);
    if (!sized.admissible) {
      continue;
    }
    const Certificate cert =
        analysis::make_certificate(model.graph, sized);
    ASSERT_TRUE(analysis::check_certificate(model.graph, cert).ok);
    for (std::size_t p = 0; p < cert.pairs.size(); ++p) {
      if (!cert.pairs[p].is_feedback) {
        continue;
      }
      exercised = true;
      // The first admissible cyclic model is seed 1; its back-edge is
      // pair 5, s0_join -> src.
      EXPECT_EQ(seed, 1u);
      EXPECT_EQ(p, 5u);
      {
        Certificate mutated = cert;
        mutated.pairs[p].required_initial_tokens += 1;
        const CertificateCheck check =
            analysis::check_certificate(model.graph, mutated);
        EXPECT_FALSE(check.ok);
        EXPECT_TRUE(names(check, ClauseKind::Delta, "")) << render(check);
        EXPECT_EQ(check.first_violation(),
                  "delta clause violated at buffer 's0_join -> src': "
                  "recorded cycle token requirement does not equal the "
                  "schedule-aligned max-cycle-ratio bound (20 vs 19)");
        EXPECT_EQ(check.violations.size(), 1u);
        EXPECT_EQ(check.clauses_checked, 184u);
      }
      {
        // A back-edge demoted to skeleton creates a claimed-skeleton
        // cycle — caught structurally.
        Certificate mutated = cert;
        mutated.pairs[p].is_feedback = false;
        const CertificateCheck check =
            analysis::check_certificate(model.graph, mutated);
        EXPECT_FALSE(check.ok);
        EXPECT_TRUE(names(check, ClauseKind::Coverage, "")) << render(check);
        EXPECT_EQ(check.first_violation(),
                  "coverage clause violated at buffer 's0_join -> src': "
                  "skeleton data edge goes backward in the recorded "
                  "topological order (the claimed skeleton is not acyclic "
                  "in this order) (3 vs 0)");
        EXPECT_EQ(check.violations.size(), 1u);
        EXPECT_EQ(check.clauses_checked, 68u);
      }
      break;
    }
  }
  ASSERT_TRUE(exercised)
      << "no admissible cyclic model with a feedback pair in 20 seeds";
}

// Two mutations whose diagnoses span many clause sites, pinned in full:
// every violation's describe() text, in check order.
TEST(CertificateMutations, MultiViolationDiagnosesRenderEveryClauseExactly) {
  models::Mp3Playback mp3 = models::make_mp3_playback();
  const GraphAnalysis sized = analysis::compute_buffer_capacities(
      mp3.graph, analysis::ConstraintSet{mp3.constraint});
  ASSERT_TRUE(sized.admissible);
  const Certificate cert = analysis::make_certificate(mp3.graph, sized);
  const auto diagnoses = [&](const Certificate& mutated) {
    std::vector<std::string> out;
    for (const ClauseViolation& violation :
         analysis::check_certificate(mp3.graph, mutated).violations) {
      out.push_back(describe(violation));
    }
    return out;
  };

  Certificate feedback = cert;
  feedback.pairs[1].is_feedback = true;
  const std::vector<std::string> feedback_expected = {
      "coverage clause violated at buffer 'vMP3 -> vSRC': pair is recorded "
      "as a feedback back-edge but lies on no directed cycle of the data "
      "edges",
      "coverage clause violated at buffer 'vMP3 -> vSRC': a feedback "
      "back-edge must carry at least one circulating initial token (0 vs "
      ">= 1)",
      "coverage clause violated at actor 'vBR': actor receives no pacing "
      "demand from any throughput constraint (it neither reaches a "
      "sink-kind anchor nor hangs off a source-kind anchor)",
      "coverage clause violated at actor 'vMP3': actor receives no pacing "
      "demand from any throughput constraint (it neither reaches a "
      "sink-kind anchor nor hangs off a source-kind anchor)",
      "coverage clause violated at buffer 'vBR -> vMP3': skeleton edge is "
      "paced by no throughput constraint (its consumer reaches no "
      "sink-kind anchor and its producer hangs off no source-kind anchor)",
      "omega clause violated at actor 'vBR': alignment lead does not "
      "satisfy the source-region longest-path equation omega = "
      "max(omega(producer) + rho(producer) + s*(pi_max-1)) "
      "(1201859/7056000 s vs 0 s)",
      "omega clause violated at actor 'vMP3': alignment lead does not "
      "satisfy the source-region longest-path equation omega = "
      "max(omega(producer) + rho(producer) + s*(pi_max-1)) "
      "(479501/7056000 s vs 0 s)",
      "delta clause violated at buffer 'vMP3 -> vSRC': recorded cycle token "
      "requirement does not equal the schedule-aligned max-cycle-ratio "
      "bound (0 vs 479)",
      "delta clause violated at buffer 'vMP3 -> vSRC': circulating initial "
      "tokens fall short of the cycle's max-cycle-ratio requirement; the "
      "period cannot be sustained (0 vs 479)",
  };
  EXPECT_EQ(diagnoses(feedback), feedback_expected);

  Certificate repointed = cert;
  repointed.constraints[0].actor = repointed.actors[2].actor;
  const std::vector<std::string> repointed_expected = {
      "coverage clause violated at actor 'vSRC': recorded anchor kind does "
      "not match the skeleton structure (not source-kind vs source-kind)",
      "coverage clause violated at buffer 'vSRC -> vDAC': recorded "
      "rate-determining side does not match the anchor reachability of the "
      "edge's endpoints (Sink vs Source)",
      "phi clause violated at actor 'vSRC': a constrained actor's pacing "
      "witness must equal its period (1/100 s vs 1/44100 s)",
      "omega clause violated at actor 'vSRC': a sink-kind anchor's "
      "alignment lead must be zero (881/44100 s vs 0 s)",
      "omega clause violated at actor 'vDAC': alignment lead does not "
      "satisfy the source-region longest-path equation omega = "
      "max(omega(producer) + rho(producer) + s*(pi_max-1)) (0 s vs "
      "881/22050 s)",
      "zeta clause violated at buffer 'vMP3 -> vSRC': recorded "
      "tight-rounding claim does not match the "
      "static-and-adjacent-to-anchor predicate (padded vs tight)",
      "zeta clause violated at buffer 'vMP3 -> vSRC': capacity does not "
      "equal the rounded slack plus the initial tokens (3263 vs 3262)",
  };
  EXPECT_EQ(diagnoses(repointed), repointed_expected);
}

// Variable rates on a reconvergent (non-bridge) edge: a diamond's
// certificate, checked against the same diamond with one branch made
// data-dependent.  The placement clause names the edge and its rate sets.
TEST(CertificateMutations, VariableRatesOffABridgeAreNamedWithTheirRateSets) {
  const auto diamond = [](const RateSet& branch_consumption) {
    dataflow::VrdfGraph g;
    const Duration rho = milliseconds(Rational(1, 10));
    const ActorId a = g.add_actor("a", rho);
    const ActorId b = g.add_actor("b", rho);
    const ActorId c = g.add_actor("c", rho);
    const ActorId d = g.add_actor("d", rho);
    (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
    (void)g.add_buffer(a, c, RateSet::singleton(1), RateSet::singleton(1));
    (void)g.add_buffer(b, d, RateSet::singleton(1), branch_consumption);
    (void)g.add_buffer(c, d, RateSet::singleton(1), RateSet::singleton(1));
    return g;
  };
  const dataflow::VrdfGraph fixed = diamond(RateSet::singleton(1));
  const ThroughputConstraint sink{*fixed.find_actor("d"),
                                  milliseconds(Rational(1))};
  const GraphAnalysis sized =
      analysis::compute_buffer_capacities(fixed, analysis::ConstraintSet{sink});
  ASSERT_TRUE(sized.admissible);
  const Certificate cert = analysis::make_certificate(fixed, sized);
  ASSERT_TRUE(analysis::check_certificate(fixed, cert).ok);

  const CertificateCheck check = analysis::check_certificate(
      diamond(RateSet::interval(1, 2)), cert);
  std::vector<std::string> got;
  for (const ClauseViolation& violation : check.violations) {
    got.push_back(describe(violation));
  }
  const std::vector<std::string> expected = {
      "coverage clause violated at buffer 'b -> d': recorded staticness "
      "does not match the edge's rate sets (pi={1}, gamma=[1,2]) (static "
      "vs variable)",
      "coverage clause violated at buffer 'b -> d': data-dependent rates "
      "(pi={1}, gamma=[1,2]) off a chain-segment (bridge) edge; sibling "
      "branch flows could diverge unboundedly",
      "phi clause violated at buffer 'b -> d': producer pacing witness does "
      "not equal the sink-side demand phi(consumer) * pi_min / gamma_max "
      "(1/1000 s vs 1/2000 s)",
      "zeta clause violated at buffer 'b -> d': consumer slack does not "
      "equal rho + s*(gamma_max-1) (1/10000 s vs 3/5000 s)",
      "zeta clause violated at buffer 'b -> d': raw token count does not "
      "equal (delta_producer + delta_consumer) / s (1/5 vs 7/5)",
      "zeta clause violated at buffer 'b -> d': recorded tight-rounding "
      "claim does not match the static-and-adjacent-to-anchor predicate "
      "(tight vs padded)",
      "zeta clause violated at buffer 'b -> d': capacity does not equal the "
      "rounded slack plus the initial tokens (1 vs 2)",
  };
  EXPECT_EQ(got, expected);
  EXPECT_EQ(check.clauses_checked, 113u);
}

// Exhaustive single-field sweep: EVERY numeric witness field of every
// fact, perturbed one at a time, must be rejected (100% detection).
TEST(CertificateMutations, ExhaustiveSingleFieldSweepIsFullyDetected) {
  const models::ModelClass classes[] = {
      models::ModelClass::Chain, models::ModelClass::ForkJoin,
      models::ModelClass::Cyclic, models::ModelClass::MultiConstraint,
      models::ModelClass::InteriorPinned};
  int mutations_checked = 0;
  for (const models::ModelClass model_class : classes) {
    models::SyntheticModel model;
    GraphAnalysis sized;
    bool found = false;
    for (std::uint64_t seed = 1; seed <= 20 && !found; ++seed) {
      models::RandomModelSpec spec;
      spec.model_class = model_class;
      spec.seed = seed;
      model = models::make_random_model(spec);
      sized =
          analysis::compute_buffer_capacities(model.graph, model.constraints);
      found = sized.admissible;
    }
    ASSERT_TRUE(found) << "class " << static_cast<int>(model_class);
    const Certificate cert = analysis::make_certificate(model.graph, sized);
    ASSERT_TRUE(analysis::check_certificate(model.graph, cert).ok);

    const auto detected = [&](const Certificate& mutated) {
      return !analysis::check_certificate(model.graph, mutated).ok;
    };
    const Duration bump(Rational(1, 999983));  // prime denominator: never
                                               // cancels against model
                                               // rationals
    for (std::size_t i = 0; i < cert.actors.size(); ++i) {
      Certificate m = cert;
      m.actors[i].phi += bump;
      EXPECT_TRUE(detected(m)) << "actors[" << i << "].phi";
      m = cert;
      m.actors[i].lead += bump;
      EXPECT_TRUE(detected(m)) << "actors[" << i << "].lead";
      m = cert;
      m.actors[i].rho += bump;
      EXPECT_TRUE(detected(m)) << "actors[" << i << "].rho";
      mutations_checked += 3;
    }
    for (std::size_t p = 0; p < cert.pairs.size(); ++p) {
      Certificate m = cert;
      m.pairs[p].delta_producer += bump;
      EXPECT_TRUE(detected(m)) << "pairs[" << p << "].delta_producer";
      m = cert;
      m.pairs[p].delta_consumer += bump;
      EXPECT_TRUE(detected(m)) << "pairs[" << p << "].delta_consumer";
      m = cert;
      m.pairs[p].raw_tokens += Rational(1, 999983);
      EXPECT_TRUE(detected(m)) << "pairs[" << p << "].raw_tokens";
      m = cert;
      m.pairs[p].initial_tokens += 1;
      EXPECT_TRUE(detected(m)) << "pairs[" << p << "].initial_tokens";
      m = cert;
      m.pairs[p].required_initial_tokens += 1;
      EXPECT_TRUE(detected(m)) << "pairs[" << p << "].required_initial_tokens";
      m = cert;
      m.pairs[p].capacity += 1;
      EXPECT_TRUE(detected(m)) << "pairs[" << p << "].capacity";
      m = cert;
      m.pairs[p].side = m.pairs[p].side == ConstraintSide::Sink
                            ? ConstraintSide::Source
                            : ConstraintSide::Sink;
      EXPECT_TRUE(detected(m)) << "pairs[" << p << "].side";
      m = cert;
      m.pairs[p].is_static = !m.pairs[p].is_static;
      EXPECT_TRUE(detected(m)) << "pairs[" << p << "].is_static";
      m = cert;
      m.pairs[p].is_feedback = !m.pairs[p].is_feedback;
      EXPECT_TRUE(detected(m)) << "pairs[" << p << "].is_feedback";
      mutations_checked += 9;
    }
    {
      Certificate m = cert;
      m.total_capacity += 1;
      EXPECT_TRUE(detected(m)) << "total_capacity";
      ++mutations_checked;
    }
    for (std::size_t c = 0; c < cert.constraints.size(); ++c) {
      Certificate m = cert;
      m.constraints[c].period += bump;
      EXPECT_TRUE(detected(m)) << "constraints[" << c << "].period";
      ++mutations_checked;
    }
  }
  // Sanity: the sweep actually exercised a substantial mutation surface.
  EXPECT_GT(mutations_checked, 150);
}

// ----------------------------------------- acceptance: no false rejects

// Every admissible analysis across the randomized sweep space must
// certify cleanly: 5 classes x seeds, sink+source placements, plain and
// faulted+headroom variants.  A single failure here is an analyzer/
// checker disagreement — exactly what the pair exists to surface.
TEST(CertificateAcceptance, RandomizedSweepsCertifyWithZeroFalseRejections) {
  for (const bool faulted : {false, true}) {
    sim::SweepSpec spec;
    spec.seeds_per_class = 12;
    spec.modes = {sim::ConstraintMode::Sink, sim::ConstraintMode::Source};
    spec.headroom_levels = faulted ? std::vector<std::int64_t>{0, 2}
                                   : std::vector<std::int64_t>{0};
    spec.observe_firings = 60;
    spec.faulted = faulted;
    spec.certify = true;
    const sim::FleetSweep sweep(spec);
    const sim::FleetReport report = sweep.run(2);
    EXPECT_EQ(report.total.certificate_failures, 0)
        << (faulted ? "faulted" : "plain") << " sweep";
    EXPECT_GT(report.total.certified, 0);
    for (const sim::FleetItemResult& item : report.items) {
      if (item.certificate_clauses > 0) {
        EXPECT_TRUE(item.certificate_ok)
            << "item " << item.item.index << ": " << item.detail;
      } else {
        // Only items the analysis itself refused may skip certification.
        EXPECT_TRUE(item.rejected) << "item " << item.item.index;
      }
    }
  }
}

// Certify-mode fleet reports keep the canonical-bytes guarantee.
TEST(CertificateAcceptance, CertifyModeCanonicalBytesAcrossThreadCounts) {
  sim::SweepSpec spec;
  spec.seeds_per_class = 6;
  spec.modes = {sim::ConstraintMode::Sink, sim::ConstraintMode::Source};
  spec.observe_firings = 50;
  spec.certify = true;
  const sim::FleetSweep sweep(spec);
  const std::string one = sim::canonical_text(sweep.run(1));
  const std::string two = sim::canonical_text(sweep.run(2));
  const std::string eight = sim::canonical_text(sweep.run(8));
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  EXPECT_NE(one.find(" certify=1 "), std::string::npos);
  EXPECT_NE(one.find("cert_failures=0"), std::string::npos);
}

// Item codec round-trips the certificate fields.
TEST(CertificateAcceptance, ItemCodecRoundTripsCertificateFields) {
  sim::FleetItemResult result;
  result.item.index = 7;
  result.item.model_class = models::ModelClass::Cyclic;
  result.item.seed_ordinal = 3;
  result.pass = true;
  result.certificate_clauses = 451;
  result.certificate_ok = true;
  const std::string line = sim::encode_item_line(result);
  sim::FleetItemResult decoded;
  ASSERT_TRUE(sim::decode_item_line(line, &decoded));
  EXPECT_EQ(decoded.certificate_clauses, 451);
  EXPECT_TRUE(decoded.certificate_ok);
  EXPECT_EQ(sim::encode_item_line(decoded), line);
}

// --------------------------------------- incremental + admission gating

TEST(CertificateIncremental, EngineCertifiesMp3AdmissionSequence) {
  models::Mp3Playback mp3 = models::make_mp3_playback();
  const analysis::TopologySnapshot snapshot(mp3.graph);
  ASSERT_TRUE(snapshot.ok());
  analysis::AdmissionController controller(
      snapshot, analysis::ConstraintSet{mp3.constraint});
  controller.set_require_certificate(true);
  EXPECT_TRUE(controller.require_certificate());

  // A retune within budget: accepted, and certified.
  const Duration original_rho = mp3.graph.actor(mp3.mp3).response_time;
  const analysis::AdmissionDecision ok_decision = controller.retune(
      mp3.mp3, Duration(original_rho.seconds() * Rational(1, 2)));
  EXPECT_TRUE(ok_decision.accepted);
  // A retune past the pacing budget: rejected on admissibility (the
  // certificate gate never sees an inadmissible candidate).
  const analysis::AdmissionDecision bad_decision =
      controller.retune(mp3.mp3, seconds(Rational(1000)));
  EXPECT_FALSE(bad_decision.accepted);
  // A period move and its revert: both certified; the revert restores
  // the published numbers under active certification.
  const analysis::AdmissionDecision slower = controller.set_period(
      mp3.constraint.actor,
      Duration(mp3.constraint.period.seconds() * Rational(2)));
  EXPECT_TRUE(slower.accepted);
  const analysis::AdmissionDecision restore_period =
      controller.set_period(mp3.constraint.actor, mp3.constraint.period);
  EXPECT_TRUE(restore_period.accepted);
  const analysis::AdmissionDecision restore_rho =
      controller.retune(mp3.mp3, original_rho);
  EXPECT_TRUE(restore_rho.accepted);

  const analysis::InvalidationStats& stats = controller.engine().stats();
  EXPECT_GE(stats.certificates_checked, 3u);  // accepted ops + rollbacks
  EXPECT_GT(stats.certificate_clauses, 0u);
  EXPECT_EQ(stats.certificate_violations, 0u)
      << (controller.engine().last_certificate_violation().has_value()
              ? describe(*controller.engine().last_certificate_violation())
              : std::string());
  EXPECT_FALSE(
      controller.engine().last_certificate_violation().has_value());

  // The serviced state stays the published shape under certification.
  EXPECT_EQ(controller.analysis().total_capacity,
            models::Mp3PaperNumbers::kVrdfCapacities[0] +
                models::Mp3PaperNumbers::kVrdfCapacities[1] +
                models::Mp3PaperNumbers::kVrdfCapacities[2]);
}

TEST(CertificateIncremental, SetCertifyTogglesAndClearsState) {
  models::Mp3Playback mp3 = models::make_mp3_playback();
  const analysis::TopologySnapshot snapshot(mp3.graph);
  analysis::IncrementalAnalysis engine(
      snapshot, analysis::ConstraintSet{mp3.constraint});
  EXPECT_FALSE(engine.certify());
  const Duration rho = mp3.graph.actor(mp3.mp3).response_time;
  engine.retune(mp3.mp3, Duration(rho.seconds() * Rational(1, 2)));
  EXPECT_EQ(engine.stats().certificates_checked, 0u);  // off by default
  engine.set_certify(true);
  engine.retune(mp3.mp3, Duration(rho.seconds() * Rational(1, 4)));
  EXPECT_EQ(engine.stats().certificates_checked, 1u);
  EXPECT_FALSE(engine.last_certificate_violation().has_value());
  engine.set_certify(false);
  engine.retune(mp3.mp3, rho);
  EXPECT_EQ(engine.stats().certificates_checked, 1u);  // unchanged
}

}  // namespace
}  // namespace vrdf
