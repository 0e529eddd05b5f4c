#include "io/text_format.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string_view>
#include <vector>

#include "util/checked_int.hpp"
#include "util/error.hpp"

namespace vrdf::io {

namespace {

using dataflow::RateSet;

[[noreturn]] void parse_error(std::size_t line_no, const std::string& message) {
  throw ModelError("line " + std::to_string(line_no) + ": " + message);
}

/// Checked integer token: non-numeric text, trailing garbage ("12abc")
/// and values outside int64 are line-numbered diagnostics, checked in
/// std::stoll's order, never a truncated or wrapped value.
std::int64_t parse_int64(std::string_view text, std::size_t line_no,
                         const char* what) {
  std::int64_t value = 0;
  switch (scan_int64(text, value)) {
    case IntScan::Ok:
      return value;
    case IntScan::NoDigits:
      break;
    case IntScan::OutOfRange:
      parse_error(line_no,
                  std::string(what) + " '" + std::string(text) +
                      "' is out of range");
    case IntScan::Trailing:
      parse_error(line_no, std::string("malformed ") + what + " '" +
                               std::string(text) + "' (trailing characters)");
  }
  parse_error(line_no,
              std::string("malformed ") + what + " '" + std::string(text) + "'");
}

/// Checked Rational::from_string: converts its ContractError /
/// OverflowError into a line-numbered parse diagnostic.
Rational parse_rational(std::string_view text, std::size_t line_no,
                        const char* what) {
  try {
    return Rational::from_string(text);
  } catch (const OverflowError&) {
    parse_error(line_no, std::string(what) + " '" + std::string(text) +
                             "' is out of range");
  } catch (const Error&) {
    parse_error(line_no, std::string("malformed ") + what + " '" +
                             std::string(text) + "'");
  }
}

/// Parses one rate set of the buffer producer -> consumer.  Sets the
/// model forbids (a negative quantum, lo > hi, no positive quantum) are
/// line-numbered diagnostics naming the buffer, not contract violations
/// of RateSet.
RateSet parse_rate_set(std::string_view text, std::size_t line_no,
                       std::string_view producer, std::string_view consumer) {
  if (text.size() < 3) {
    parse_error(line_no, "malformed rate set '" + std::string(text) + "'");
  }
  const char open = text.front();
  const char close = text.back();
  std::string_view body = text.substr(1, text.size() - 2);
  // A trailing ',' closes the last item rather than opening an empty one
  // ("{1,2,}" is {1,2}); every other empty item is malformed.
  if (body.back() == ',') {
    body.remove_suffix(1);
  }
  std::vector<std::int64_t> values;
  for (std::size_t start = 0;;) {
    const std::size_t comma = body.find(',', start);
    values.push_back(
        parse_int64(body.substr(start, comma - start), line_no, "rate value"));
    if (comma == std::string_view::npos) {
      break;
    }
    start = comma + 1;
  }
  const bool is_interval = open == '[' && close == ']';
  if (!is_interval && !(open == '{' && close == '}')) {
    parse_error(line_no, "rate sets are '{...}' or '[lo,hi]'");
  }
  if (is_interval && values.size() != 2) {
    parse_error(line_no, "an interval needs exactly two bounds");
  }
  const auto [min, max] = std::minmax_element(values.begin(), values.end());
  const std::int64_t lo = is_interval ? values[0] : *min;
  const std::int64_t hi = is_interval ? values[1] : *max;
  const char* const fault = lo < 0    ? "has a negative quantum"
                            : hi < lo ? "needs lo <= hi"
                            : hi == 0 ? "needs a positive quantum"
                                      : nullptr;
  if (fault != nullptr) {
    parse_error(line_no, "buffer " + std::string(producer) + " -> " +
                             std::string(consumer) + ": rate set '" +
                             std::string(text) + "' " + fault);
  }
  return is_interval ? RateSet::interval(lo, hi) : RateSet::of(std::move(values));
}

/// The whitespace operator>> splits on in the classic locale; '\r' among
/// it, so CRLF documents tokenize like LF ones.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Splits a line into whitespace-separated tokens, reusing `tokens`.
void split_ws(std::string_view line, std::vector<std::string_view>& tokens) {
  tokens.clear();
  std::size_t i = 0;
  while (true) {
    while (i < line.size() && is_space(line[i])) {
      ++i;
    }
    if (i == line.size()) {
      return;
    }
    const std::size_t start = i;
    while (i < line.size() && !is_space(line[i])) {
      ++i;
    }
    tokens.push_back(line.substr(start, i - start));
  }
}

/// "key=value" accessor (`key` includes the '='); empty when the token
/// has another key.
std::optional<std::string_view> key_value(std::string_view token,
                                          std::string_view key) {
  if (token.starts_with(key)) {
    return token.substr(key.size());
  }
  return std::nullopt;
}

}  // namespace

std::string write_chain(
    const dataflow::VrdfGraph& graph,
    const std::optional<analysis::ThroughputConstraint>& constraint) {
  analysis::ConstraintSet constraints;
  if (constraint.has_value()) {
    constraints.push_back(*constraint);
  }
  return write_chain(graph, constraints);
}

std::string write_chain(const dataflow::VrdfGraph& graph,
                        const analysis::ConstraintSet& constraints) {
  for (const dataflow::EdgeId e : graph.edges()) {
    VRDF_REQUIRE(graph.edge(e).paired.is_valid(),
                 "write_chain only serializes buffer-paired graphs");
  }
  // The format tokenizes on whitespace, strips '#' comments and keys
  // buffer endpoints on the literal "->" token, so a name containing any
  // of those would serialize into a document that reparses wrong (or off
  // by one token).  Reject at write time instead of emitting garbage.
  for (const dataflow::ActorId a : graph.actors()) {
    const std::string& name = graph.actor(a).name;
    bool bad = name.empty() || name == "->" ||
               name.find('#') != std::string::npos ||
               name.find('=') != std::string::npos;
    for (const char c : name) {
      bad = bad || std::isspace(static_cast<unsigned char>(c)) != 0;
    }
    VRDF_REQUIRE(!bad, "write_chain: actor name '" + name +
                           "' cannot be serialized (empty, \"->\", or "
                           "containing whitespace, '=' or '#')");
  }
  std::ostringstream os;
  os << "vrdf-chain v1\n";
  for (const dataflow::ActorId a : graph.actors()) {
    const dataflow::Actor& actor = graph.actor(a);
    os << "actor " << actor.name
       << " rho=" << actor.response_time.seconds().to_string() << '\n';
  }
  for (const dataflow::BufferEdges& b : graph.buffers()) {
    const dataflow::Edge& data = graph.edge(b.data);
    os << "buffer " << graph.actor(data.source).name << " -> "
       << graph.actor(data.target).name
       << " pi=" << data.production.to_string()
       << " gamma=" << data.consumption.to_string();
    // capacity= is the *total* container count (free + occupied by
    // initial data tokens); delta= carries the initial tokens of cyclic
    // back-edges so cyclic models round-trip.
    if (const std::int64_t capacity = graph.buffer_capacity(b);
        capacity != 0) {
      os << " capacity=" << capacity;
    }
    if (data.initial_tokens != 0) {
      os << " delta=" << data.initial_tokens;
    }
    os << '\n';
  }
  for (const analysis::ThroughputConstraint& c : constraints) {
    os << "constraint " << graph.actor(c.actor).name
       << " period=" << c.period.seconds().to_string() << '\n';
  }
  return os.str();
}

ChainDocument read_chain(std::string_view text) {
  ChainDocument doc;
  std::vector<std::string_view> tokens;
  std::size_t line_no = 0;
  bool header_seen = false;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t newline = text.find('\n', pos);
    std::string_view line = text.substr(pos, newline - pos);
    pos = newline == std::string_view::npos ? text.size() : newline + 1;
    ++line_no;
    line = line.substr(0, line.find('#'));
    split_ws(line, tokens);
    if (tokens.empty()) {
      continue;
    }
    if (!header_seen) {
      if (tokens.size() != 2 || tokens[0] != "vrdf-chain" || tokens[1] != "v1") {
        parse_error(line_no, "expected header 'vrdf-chain v1'");
      }
      header_seen = true;
      continue;
    }
    if (tokens[0] == "actor") {
      if (tokens.size() != 3) {
        parse_error(line_no, "expected 'actor <name> rho=<seconds>'");
      }
      const auto rho = key_value(tokens[2], "rho=");
      if (!rho.has_value()) {
        parse_error(line_no, "missing rho=");
      }
      const Rational seconds = parse_rational(*rho, line_no, "rho");
      if (!seconds.is_positive()) {
        parse_error(line_no, "rho of actor '" + std::string(tokens[1]) +
                                 "' must be positive");
      }
      if (doc.graph.find_actor(tokens[1]).has_value()) {
        parse_error(line_no, "duplicate actor '" + std::string(tokens[1]) + "'");
      }
      (void)doc.graph.add_actor(std::string(tokens[1]), Duration(seconds));
    } else if (tokens[0] == "buffer") {
      if (tokens.size() < 6 || tokens[2] != "->") {
        parse_error(line_no,
                    "expected 'buffer <p> -> <c> pi=<set> gamma=<set> "
                    "[capacity=<n>] [delta=<n>]'");
      }
      const auto producer = doc.graph.find_actor(tokens[1]);
      const auto consumer = doc.graph.find_actor(tokens[3]);
      if (!producer.has_value() || !consumer.has_value()) {
        parse_error(line_no, "buffer references an unknown actor");
      }
      std::optional<RateSet> pi;
      std::optional<RateSet> gamma;
      std::optional<std::int64_t> capacity;
      std::optional<std::int64_t> delta;
      for (std::size_t i = 4; i < tokens.size(); ++i) {
        const std::string_view key = tokens[i].substr(0, tokens[i].find('=') + 1);
        const std::string_view value = tokens[i].substr(key.size());
        const auto once = [&](bool seen) {
          if (seen) {
            parse_error(line_no,
                        "duplicate attribute '" + std::string(key) + "'");
          }
        };
        if (key == "pi=") {
          once(pi.has_value());
          pi = parse_rate_set(value, line_no, tokens[1], tokens[3]);
        } else if (key == "gamma=") {
          once(gamma.has_value());
          gamma = parse_rate_set(value, line_no, tokens[1], tokens[3]);
        } else if (key == "capacity=") {
          once(capacity.has_value());
          capacity = parse_int64(value, line_no, "capacity");
        } else if (key == "delta=") {
          once(delta.has_value());
          delta = parse_int64(value, line_no, "delta");
        } else {
          parse_error(line_no,
                      "unknown attribute '" + std::string(tokens[i]) + "'");
        }
      }
      if (!pi.has_value() || !gamma.has_value()) {
        parse_error(line_no, "buffer needs pi= and gamma=");
      }
      const std::int64_t total = capacity.value_or(0);
      const std::int64_t initial = delta.value_or(0);
      if (initial < 0 || total < 0 || (total != 0 && total < initial)) {
        parse_error(line_no, "capacity must cover delta (initial tokens)");
      }
      (void)doc.graph.add_buffer(*producer, *consumer, std::move(*pi),
                                 std::move(*gamma), total, initial);
    } else if (tokens[0] == "constraint") {
      if (tokens.size() != 3) {
        parse_error(line_no, "expected 'constraint <actor> period=<seconds>'");
      }
      const auto actor = doc.graph.find_actor(tokens[1]);
      if (!actor.has_value()) {
        parse_error(line_no, "constraint references an unknown actor");
      }
      for (const analysis::ThroughputConstraint& existing : doc.constraints) {
        if (existing.actor == *actor) {
          parse_error(line_no, "duplicate constraint for actor '" +
                                   std::string(tokens[1]) + "'");
        }
      }
      const auto period = key_value(tokens[2], "period=");
      if (!period.has_value()) {
        parse_error(line_no, "missing period=");
      }
      doc.constraints.push_back(analysis::ThroughputConstraint{
          *actor, Duration(parse_rational(*period, line_no, "period"))});
      if (!doc.constraint.has_value()) {
        doc.constraint = doc.constraints.front();
      }
    } else {
      parse_error(line_no, "unknown directive '" + std::string(tokens[0]) + "'");
    }
  }
  if (!header_seen) {
    throw ModelError("empty document: expected header 'vrdf-chain v1'");
  }
  return doc;
}

}  // namespace vrdf::io
