#include "inputs.hpp"

#include <algorithm>

#include "bench.hpp"
#include "io/text_format.hpp"
#include "models/mp3.hpp"
#include "models/synthetic.hpp"
#include "util/seed_stream.hpp"

namespace perfbench {

using vrdf::Duration;
using vrdf::Rational;

Deployment make_deployment(std::uint64_t seed, vrdf::sched::ArbiterPolicy policy,
                           std::size_t streams, std::size_t branch_length,
                           bool relaxed) {
  Rng rng(seed);
  Deployment d;
  d.wheel = vrdf::milliseconds(Rational(1));
  (void)d.platform.add_processor("cpu0", d.wheel, policy);
  (void)d.platform.add_processor("cpu1", d.wheel, policy);
  const std::size_t total = 1 + streams * branch_length;
  const auto per_wheel = static_cast<std::int64_t>((total + 1) / 2);
  const std::int64_t slot_sixteenths = std::max<std::int64_t>(1, 16 / per_wheel);
  const Duration slot(d.wheel.seconds() * Rational(slot_sixteenths, 16));
  const std::int64_t wcet_max_quarters = relaxed ? 4 : 12;
  const auto add = [&](const std::string& name) {
    const vrdf::taskgraph::TaskId id = d.tasks.add_task(name, d.wheel);
    const std::size_t processor = d.names.size() % 2;
    if (policy == vrdf::sched::ArbiterPolicy::Tdm) {
      d.platform.bind_task(name, processor, slot,
                           Duration(slot.seconds() *
                                    Rational(rng.range(1, wcet_max_quarters), 4)));
    } else {
      // Round-robin WCETs on one processor must fit its wheel together.
      d.platform.bind_task(name, processor,
                           Duration(d.wheel.seconds() *
                                    Rational(rng.range(1, 4), 4 * per_wheel)));
    }
    d.names.push_back(name);
    return id;
  };
  const Duration base = vrdf::milliseconds(Rational(relaxed ? 4 : 2));
  const vrdf::taskgraph::TaskId root = add("root");
  for (std::size_t s = 0; s < streams; ++s) {
    const std::int64_t gear = rng.range(1, 2);
    vrdf::taskgraph::TaskId previous = root;
    std::string last;
    for (std::size_t t = 0; t < branch_length; ++t) {
      last = "s" + std::to_string(s) + "t" + std::to_string(t);
      const vrdf::taskgraph::TaskId id = add(last);
      (void)d.tasks.add_buffer(previous, id, vrdf::dataflow::RateSet::singleton(1),
                               vrdf::dataflow::RateSet::singleton(t == 0 ? gear : 1));
      previous = id;
    }
    d.streams.push_back({last, Duration(base.seconds() * Rational(gear))});
  }
  return d;
}

namespace {

// Per 20 requests: 0 MP3, 1–10 the generator classes (two each), 11–16
// random chains, 17–19 deployments.
constexpr int kMixPeriod = 20;

void generate(DesignRequest& request, int slot, Rng& rng) {
  namespace models = vrdf::models;
  if (slot == 0) {
    const models::Mp3Playback mp3 = models::make_mp3_playback();
    request.model_class = "mp3";
    request.size = mp3.graph.actor_count();
    request.text = vrdf::io::write_chain(mp3.graph, mp3.constraint);
    return;
  }
  if (slot <= 10) {
    const auto model_class = static_cast<models::ModelClass>((slot - 1) / 2);
    request.model_class = models::class_name(model_class);
    vrdf::dataflow::VrdfGraph graph;
    vrdf::analysis::ConstraintSet constraints;
    switch (model_class) {
      case models::ModelClass::Chain: {
        models::RandomChainSpec spec;
        spec.seed = request.seed;
        request.size = spec.length;
        models::SyntheticChain m = models::make_random_chain(spec);
        graph = std::move(m.graph);
        constraints = {m.constraint};
        break;
      }
      case models::ModelClass::ForkJoin: {
        models::RandomForkJoinSpec spec;
        spec.seed = request.seed;
        models::SyntheticChain m = models::make_random_fork_join(spec);
        graph = std::move(m.graph);
        constraints = {m.constraint};
        break;
      }
      case models::ModelClass::Cyclic: {
        models::RandomCyclicSpec spec;
        spec.base.seed = request.seed;
        models::SyntheticChain m = models::make_random_cyclic(spec);
        graph = std::move(m.graph);
        constraints = {m.constraint};
        break;
      }
      case models::ModelClass::MultiConstraint: {
        models::RandomMultiSinkSpec spec;
        spec.seed = request.seed;
        models::SyntheticMultiConstraint m = models::make_random_multi_sink(spec);
        graph = std::move(m.graph);
        constraints = std::move(m.constraints);
        break;
      }
      case models::ModelClass::InteriorPinned: {
        models::RandomInteriorPinSpec spec;
        spec.seed = request.seed;
        models::SyntheticChain m = models::make_random_interior_pinned(spec);
        graph = std::move(m.graph);
        constraints = {m.constraint};
        break;
      }
    }
    request.size = graph.actor_count();
    request.text = vrdf::io::write_chain(graph, constraints);
    return;
  }
  if (slot <= 16) {
    request.model_class = "random_chain";
    models::RandomChainSpec spec;
    spec.seed = request.seed;
    spec.length = static_cast<std::size_t>(rng.range(8, 64));
    request.size = spec.length;
    const models::SyntheticChain m = models::make_random_chain(spec);
    request.text = vrdf::io::write_chain(m.graph, m.constraint);
    return;
  }
  const bool tdm = slot != 18;
  request.model_class = tdm ? "tdm" : "round_robin";
  const auto streams = static_cast<std::size_t>(rng.range(1, 3));
  const auto length = static_cast<std::size_t>(rng.range(2, 4));
  request.size = 1 + streams * length;
  request.deployment = make_deployment(
      request.seed,
      tdm ? vrdf::sched::ArbiterPolicy::Tdm : vrdf::sched::ArbiterPolicy::RoundRobin,
      streams, length, /*relaxed=*/false);
}

}  // namespace

std::vector<DesignRequest> make_design_mix(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<DesignRequest> mix(count);
  for (std::size_t i = 0; i < count; ++i) {
    DesignRequest& request = mix[i];
    request.seed = vrdf::util::derive_seed(seed, i);
    try {
      generate(request, static_cast<int>(i % kMixPeriod), rng);
    } catch (...) {
      const std::exception_ptr error = std::current_exception();
      request.text.clear();
      request.deployment.reset();
      request.error_type = exception_type(error);
      request.error_what = exception_what(error);
    }
  }
  // Interleave the classes so consecutive requests do not share a shape.
  for (std::size_t i = count; i > 1; --i) {
    std::swap(mix[i - 1], mix[static_cast<std::size_t>(rng.next() % i)]);
  }
  return mix;
}

}  // namespace perfbench
