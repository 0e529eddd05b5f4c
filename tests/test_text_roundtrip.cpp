// Text-format round-trip identity: write → parse → write must reproduce
// the document byte for byte across every random generator — constraints,
// capacity= (installed via apply_capacities) and delta= (cyclic
// back-edge tokens) included — plus the write-time rejection of actor
// names the whitespace-tokenized format cannot represent, and every
// diagnostic read_chain gives for a malformed document, byte for byte.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/buffer_sizing.hpp"
#include "io/text_format.hpp"
#include "models/synthetic.hpp"
#include "util/error.hpp"

namespace vrdf::io {
namespace {

using dataflow::ActorId;
using dataflow::RateSet;
using dataflow::VrdfGraph;

/// Sizes the graph (when admissible), serializes, reparses, reserializes
/// and checks byte identity plus graph-level equality of the reparse.
void expect_round_trip_identity(VrdfGraph graph,
                                const analysis::ConstraintSet& constraints,
                                const std::string& label) {
  const analysis::GraphAnalysis sized =
      analysis::compute_buffer_capacities(graph, constraints);
  ASSERT_TRUE(sized.admissible)
      << label << ": " << (sized.diagnostics.empty() ? "" : sized.diagnostics[0]);
  analysis::apply_capacities(graph, sized);

  const std::string text = write_chain(graph, constraints);
  const ChainDocument parsed = read_chain(text);
  EXPECT_EQ(write_chain(parsed.graph, parsed.constraints), text) << label;

  // The reparse is the same model, not just the same bytes.
  ASSERT_EQ(parsed.graph.actor_count(), graph.actor_count()) << label;
  ASSERT_EQ(parsed.constraints.size(), constraints.size()) << label;
  const analysis::GraphAnalysis reparsed =
      analysis::compute_buffer_capacities(parsed.graph, parsed.constraints);
  ASSERT_TRUE(reparsed.admissible) << label;
  EXPECT_EQ(reparsed.total_capacity, sized.total_capacity) << label;
}

TEST(TextRoundTrip, RandomChains) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    models::RandomChainSpec spec;
    spec.seed = seed;
    spec.length = 3 + seed % 4;
    spec.source_constrained = seed % 2 == 0;
    const models::SyntheticChain model = models::make_random_chain(spec);
    expect_round_trip_identity(model.graph, {model.constraint},
                               "chain seed " + std::to_string(seed));
  }
}

TEST(TextRoundTrip, RandomForkJoins) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    models::RandomForkJoinSpec spec;
    spec.seed = seed;
    spec.stages = 1 + seed % 2;
    spec.source_constrained = seed % 2 == 0;
    const models::SyntheticChain model = models::make_random_fork_join(spec);
    expect_round_trip_identity(model.graph, {model.constraint},
                               "fork-join seed " + std::to_string(seed));
  }
}

TEST(TextRoundTrip, RandomCyclics) {
  // delta= lines carry the back-edge tokens through the round trip.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    models::RandomCyclicSpec spec;
    spec.base.seed = seed;
    const models::SyntheticChain model = models::make_random_cyclic(spec);
    expect_round_trip_identity(model.graph, {model.constraint},
                               "cyclic seed " + std::to_string(seed));
  }
}

TEST(TextRoundTrip, RandomMultiSinks) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    models::RandomMultiSinkSpec spec;
    spec.seed = seed;
    spec.sinks = 2 + seed % 3;
    const models::SyntheticMultiConstraint model =
        models::make_random_multi_sink(spec);
    expect_round_trip_identity(model.graph, model.constraints,
                               "multi-sink seed " + std::to_string(seed));
  }
}

TEST(TextRoundTrip, RandomInteriorPins) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    models::RandomInteriorPinSpec spec;
    spec.seed = seed;
    spec.upstream_length = 1 + seed % 3;
    spec.downstream_length = 1 + (seed / 2) % 3;
    const models::SyntheticChain model =
        models::make_random_interior_pinned(spec);
    expect_round_trip_identity(model.graph, {model.constraint},
                               "interior seed " + std::to_string(seed));
  }
}

TEST(TextRoundTrip, UnserializableActorNamesRejectedAtWriteTime) {
  // A name with whitespace / '=' / '#' / "->" would tokenize wrong on
  // reparse (or truncate as a comment); write_chain must throw, not emit
  // a document that silently means something else.
  const auto graph_with_name = [](const std::string& name) {
    VrdfGraph g;
    const ActorId a = g.add_actor(name, milliseconds(Rational(1)));
    const ActorId b = g.add_actor("ok", milliseconds(Rational(1)));
    (void)g.add_buffer(a, b, RateSet::singleton(1), RateSet::singleton(1));
    return g;
  };
  for (const std::string bad :
       {"two words", "tab\tname", "a=b", "->", "a#b", ""}) {
    EXPECT_THROW(
        (void)write_chain(graph_with_name(bad), analysis::ConstraintSet{}),
        ContractError)
        << "name: '" << bad << "'";
  }
  // Benign punctuation still serializes.
  const std::string ok =
      write_chain(graph_with_name("dsp.core-1"), analysis::ConstraintSet{});
  EXPECT_NE(ok.find("dsp.core-1"), std::string::npos);
  const ChainDocument parsed = read_chain(ok);
  EXPECT_TRUE(parsed.graph.find_actor("dsp.core-1").has_value());
}

// ------------------------------------------------- lexical round trip

/// Re-emits canonical text with the lexical freedom the format allows:
/// tabs and runs of spaces between tokens, '+'-signed numbers, a
/// trailing comma in explicit rate sets, trailing comments, comment-only
/// and blank lines, CRLF line endings and no final line terminator.
std::string relex(const std::string& canonical) {
  static const char* const kGaps[] = {"\t", "   ", " \t ", "\t\t"};
  std::string out = "# generated model\r\n\r\n";
  std::size_t gap = 0;
  std::size_t pos = 0;
  while (pos < canonical.size()) {
    const std::size_t newline = canonical.find('\n', pos);
    const std::string line = canonical.substr(pos, newline - pos);
    pos = newline + 1;
    std::string relexed = "  ";
    std::size_t start = 0;
    while (start <= line.size()) {
      std::size_t end = line.find(' ', start);
      end = end == std::string::npos ? line.size() : end;
      std::string token = line.substr(start, end - start);
      const std::size_t eq = token.find('=');
      if (eq != std::string::npos) {
        std::string value = token.substr(eq + 1);
        if (value.front() == '{' || value.front() == '[') {
          std::string signed_set(1, value.front());
          for (std::size_t i = 1; i < value.size(); ++i) {
            signed_set += value[i - 1] == value.front() || value[i - 1] == ','
                              ? "+" + std::string(1, value[i])
                              : std::string(1, value[i]);
          }
          if (value.front() == '{') {
            signed_set.insert(signed_set.size() - 1, ",");
          }
          value = signed_set;
        } else {
          value = "+" + value;
        }
        token = token.substr(0, eq + 1) + value;
      }
      relexed += token + kGaps[gap++ % 4];
      start = end + 1;
    }
    out += relexed + "# trailing comment\r\n";
  }
  out.resize(out.size() - 2);  // the last line ends without a terminator
  return out;
}

TEST(TextRoundTrip, LexicalVariantsParseToTheCanonicalText) {
  EXPECT_EQ(relex("vrdf-chain v1\nbuffer a -> b pi={1,2} gamma=[0,3] "
                  "capacity=4\n"),
            "# generated model\r\n\r\n  vrdf-chain\tv1   # trailing "
            "comment\r\n  buffer \t a\t\t->\tb   pi={+1,+2,} \t "
            "gamma=[+0,+3]\t\tcapacity=+4\t# trailing comment");
  for (int model_class = 0; model_class < 5; ++model_class) {
    for (const bool source : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        models::RandomModelSpec spec;
        spec.model_class = static_cast<models::ModelClass>(model_class);
        spec.source_constrained = source;
        spec.seed = seed;
        const models::SyntheticModel model = models::make_random_model(spec);
        const std::string canonical =
            write_chain(model.graph, model.constraints);
        const std::string variant = relex(canonical);
        SCOPED_TRACE(variant);
        const ChainDocument parsed = read_chain(variant);
        EXPECT_EQ(write_chain(parsed.graph, parsed.constraints), canonical);
      }
    }
  }
}

// ------------------------------------------------- pinned diagnostics

enum class Kind { Model, Contract };

struct MalformedRow {
  std::string text;
  Kind kind;
  std::string what;
};

const std::string kHeader =
    "vrdf-chain v1\nactor a rho=1/1000\nactor b rho=1/1000\n";

/// One document per parse_error site and per Rational::from_string
/// failure, with the exception type and the exact what().  A Contract
/// row is compared up to the " [" that starts the source-location suffix.
std::vector<MalformedRow> malformed_rows() {
  return {
    {"",
     Kind::Model, "empty document: expected header 'vrdf-chain v1'"},
    {"# only a comment\n\n",
     Kind::Model, "empty document: expected header 'vrdf-chain v1'"},
    {"bogus v1\n",
     Kind::Model, "line 1: expected header 'vrdf-chain v1'"},
    {"vrdf-chain v1 extra\n",
     Kind::Model, "line 1: expected header 'vrdf-chain v1'"},
    {"\n  # c\nvrdf-chain v2\n",
     Kind::Model, "line 3: expected header 'vrdf-chain v1'"},
    {kHeader + "whatisthis\n",
     Kind::Model, "line 4: unknown directive 'whatisthis'"},
    {kHeader + "actor c\n",
     Kind::Model, "line 4: expected 'actor <name> rho=<seconds>'"},
    {kHeader + "actor c period=1\n",
     Kind::Model, "line 4: missing rho="},
    {kHeader + "actor c rho=abc\n",
     Kind::Model, "line 4: malformed rho 'abc'"},
    {kHeader + "actor c rho=\n",
     Kind::Model, "line 4: malformed rho ''"},
    {kHeader + "actor c rho=1/0\n",
     Kind::Model, "line 4: malformed rho '1/0'"},
    {kHeader + "actor c rho=1.\n",
     Kind::Model, "line 4: malformed rho '1.'"},
    {kHeader + "actor c rho=3/4/5\n",
     Kind::Model, "line 4: malformed rho '3/4/5'"},
    {kHeader + "actor c rho=1e3\n",
     Kind::Model, "line 4: malformed rho '1e3'"},
    {kHeader + "actor c rho=+-5\n",
     Kind::Model, "line 4: malformed rho '+-5'"},
    {kHeader + "actor c rho=9223372036854775808\n",
     Kind::Model, "line 4: rho '9223372036854775808' is out of range"},
    {kHeader + "actor c rho=0.0000000000000000001\n",
     Kind::Model, "line 4: rho '0.0000000000000000001' is out of range"},
    {kHeader + "actor c rho=-9223372036854775808.5\n",
     Kind::Model, "line 4: rho '-9223372036854775808.5' is out of range"},
    {kHeader + "buffer a -> b pi={1}\n",
     Kind::Model, "line 4: expected 'buffer <p> -> <c> pi=<set> gamma=<set> [capacity=<n>] [delta=<n>]'"},
    {kHeader + "buffer a to b pi={1} gamma={1}\n",
     Kind::Model, "line 4: expected 'buffer <p> -> <c> pi=<set> gamma=<set> [capacity=<n>] [delta=<n>]'"},
    {kHeader + "buffer a -> zz pi={1} gamma={1}\n",
     Kind::Model, "line 4: buffer references an unknown actor"},
    {kHeader + "buffer a -> b pi={1} gamma={1} colour=red\n",
     Kind::Model, "line 4: unknown attribute 'colour=red'"},
    {kHeader + "buffer a -> b pi={1} capacity=3\n",
     Kind::Model, "line 4: buffer needs pi= and gamma="},
    {kHeader + "buffer a -> b pi={} gamma={1}\n",
     Kind::Model, "line 4: malformed rate set '{}'"},
    {kHeader + "buffer a -> b pi={1,,2} gamma={1}\n",
     Kind::Model, "line 4: malformed rate value ''"},
    {kHeader + "buffer a -> b pi={,} gamma={1}\n",
     Kind::Model, "line 4: malformed rate value ''"},
    {kHeader + "buffer a -> b pi={1,x} gamma={1}\n",
     Kind::Model, "line 4: malformed rate value 'x'"},
    {kHeader + "buffer a -> b pi={12abc} gamma={1}\n",
     Kind::Model, "line 4: malformed rate value '12abc' (trailing characters)"},
    {kHeader + "buffer a -> b pi={99999999999999999999} gamma={1}\n",
     Kind::Model, "line 4: rate value '99999999999999999999' is out of range"},
    {kHeader + "buffer a -> b pi={99999999999999999999x} gamma={1}\n",
     Kind::Model, "line 4: rate value '99999999999999999999x' is out of range"},
    {kHeader + "buffer a -> b pi=(1,2) gamma={1}\n",
     Kind::Model, "line 4: rate sets are '{...}' or '[lo,hi]'"},
    {kHeader + "buffer a -> b pi={1} gamma=[1,2,3]\n",
     Kind::Model, "line 4: an interval needs exactly two bounds"},
    {kHeader + "buffer a -> b pi={1} gamma=[1\n",
     Kind::Model, "line 4: malformed rate set '[1'"},
    {kHeader + "buffer a -> b pi={1} gamma={1} capacity=x\n",
     Kind::Model, "line 4: malformed capacity 'x'"},
    {kHeader + "buffer a -> b pi={1} gamma={1} delta=1.5\n",
     Kind::Model, "line 4: malformed delta '1.5' (trailing characters)"},
    {kHeader + "buffer a -> b pi={1} gamma={1} capacity=2 delta=3\n",
     Kind::Model, "line 4: capacity must cover delta (initial tokens)"},
    {kHeader + "buffer a -> b pi={1} gamma={1} delta=-1\n",
     Kind::Model, "line 4: capacity must cover delta (initial tokens)"},
    {kHeader + "buffer a -> b pi={1} gamma={1} capacity=-4\n",
     Kind::Model, "line 4: capacity must cover delta (initial tokens)"},
    {kHeader + "buffer a -> b pi={1} gamma={1} pi={2}\n",
     Kind::Model, "line 4: duplicate attribute 'pi='"},
    {kHeader + "buffer a -> b pi={1} gamma={1} gamma={1}\n",
     Kind::Model, "line 4: duplicate attribute 'gamma='"},
    {kHeader + "buffer a -> b pi={1} gamma={1} capacity=4 capacity=4\n",
     Kind::Model, "line 4: duplicate attribute 'capacity='"},
    {kHeader + "buffer a -> b pi={1} gamma={1} delta=0 delta=1\n",
     Kind::Model, "line 4: duplicate attribute 'delta='"},
    {kHeader + "constraint a\n",
     Kind::Model, "line 4: expected 'constraint <actor> period=<seconds>'"},
    {kHeader + "constraint zz period=1\n",
     Kind::Model, "line 4: constraint references an unknown actor"},
    {kHeader + "constraint a period=1\nconstraint a period=2\n",
     Kind::Model, "line 5: duplicate constraint for actor 'a'"},
    {kHeader + "constraint a rho=1\n",
     Kind::Model, "line 4: missing period="},
    {kHeader + "constraint a period=1/x\n",
     Kind::Model, "line 4: malformed period '1/x'"},
    {kHeader + "constraint a period=-9223372036854775809\n",
     Kind::Model, "line 4: period '-9223372036854775809' is out of range"},
    {kHeader + "buffer a -> b pi={0} gamma={1}\n",
     Kind::Model, "line 4: buffer a -> b: rate set '{0}' needs a positive quantum"},
    {kHeader + "buffer a -> b pi=[3,1] gamma={1}\n",
     Kind::Model, "line 4: buffer a -> b: rate set '[3,1]' needs lo <= hi"},
    {kHeader + "buffer a -> b pi={-1,2} gamma={1}\n",
     Kind::Model, "line 4: buffer a -> b: rate set '{-1,2}' has a negative quantum"},
    {kHeader + "actor c rho=0\n",
     Kind::Model, "line 4: rho of actor 'c' must be positive"},
    {kHeader + "actor c rho=-1/2\n",
     Kind::Model, "line 4: rho of actor 'c' must be positive"},
    {kHeader + "actor a rho=1\n",
     Kind::Model, "line 4: duplicate actor 'a'"},
    {"vrdf-chain v1\r\nactor a rho=1\r\n\r\nbogus\r\n",
     Kind::Model, "line 4: unknown directive 'bogus'"},
    {kHeader + "actor\tc\trho=x\t# trailing comment\n",
     Kind::Model, "line 4: malformed rho 'x'"},
    {kHeader + "buffer a -> b pi={1,2,} gamma={1,,} # note\n",
     Kind::Model, "line 4: malformed rate value ''"},
  };
}

TEST(TextFormat, MalformedDocumentDiagnosticsArePinned) {
  for (const MalformedRow& row : malformed_rows()) {
    SCOPED_TRACE(row.text);
    try {
      (void)read_chain(row.text);
      ADD_FAILURE() << "accepted";
    } catch (const ModelError& e) {
      EXPECT_EQ(row.kind, Kind::Model);
      EXPECT_EQ(std::string(e.what()), row.what);
    } catch (const ContractError& e) {
      EXPECT_EQ(row.kind, Kind::Contract);
      const std::string what = e.what();
      EXPECT_EQ(what.substr(0, what.find(" [")), row.what);
    }
  }
}

}  // namespace
}  // namespace vrdf::io
