// Microbenchmarks of the simulator and protocol executions: wall-clock cost
// of one full execution per protocol and per n, plus tester throughput.
#include <benchmark/benchmark.h>

#include "adversary/adversaries.h"
#include "micro_report.h"
#include "core/registry.h"
#include "sim/network.h"
#include "testers/cr_tester.h"

namespace {

using namespace simulcast;

void run_protocol(benchmark::State& state, const std::string& name) {
  const auto proto = core::make_protocol(name);
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::ProtocolParams params;
  params.n = n;
  stats::Rng rng(n);
  BitVec inputs(n);
  for (std::size_t i = 0; i < n; ++i) inputs.set(i, rng.bit());
  std::uint64_t seed = 0;
  for (auto _ : state) {
    adversary::SilentAdversary adv;
    sim::ExecutionConfig config;
    config.seed = seed++;
    benchmark::DoNotOptimize(sim::run_execution(*proto, params, inputs, adv, config));
  }
}

void BM_ExecSeqBroadcast(benchmark::State& state) { run_protocol(state, "seq-broadcast"); }
void BM_ExecCgma(benchmark::State& state) { run_protocol(state, "cgma"); }
void BM_ExecChorRabin(benchmark::State& state) { run_protocol(state, "chor-rabin"); }
void BM_ExecGennaro(benchmark::State& state) { run_protocol(state, "gennaro"); }
void BM_ExecFlawedPiG(benchmark::State& state) { run_protocol(state, "flawed-pi-g"); }

BENCHMARK(BM_ExecSeqBroadcast)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_ExecCgma)->Arg(4)->Arg(16);
BENCHMARK(BM_ExecChorRabin)->Arg(4)->Arg(16);
BENCHMARK(BM_ExecGennaro)->Arg(4)->Arg(16);
BENCHMARK(BM_ExecFlawedPiG)->Arg(4)->Arg(16)->Arg(64);

void BM_CrTester(benchmark::State& state) {
  const auto proto = core::make_protocol("gennaro");
  exec::RunSpec spec;
  spec.protocol = proto.get();
  spec.params.n = 4;
  spec.adversary = adversary::silent_factory();
  const auto uniform = dist::make_uniform(4);
  const auto samples =
      exec::Runner().run_batch(spec, *uniform, static_cast<std::size_t>(state.range(0)), 1).samples;
  for (auto _ : state) benchmark::DoNotOptimize(testers::test_cr(samples, spec.corrupted));
}
BENCHMARK(BM_CrTester)->Arg(500)->Arg(2000);

void BM_SampleCollection(benchmark::State& state) {
  const auto proto = core::make_protocol("gennaro");
  exec::RunSpec spec;
  spec.protocol = proto.get();
  spec.params.n = 4;
  spec.adversary = adversary::silent_factory();
  const auto uniform = dist::make_uniform(4);
  std::uint64_t seed = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(exec::Runner().run_batch(spec, *uniform, 10, seed++).samples);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_SampleCollection);

}  // namespace

int main(int argc, char** argv) {
  simulcast::obs::ExperimentRecord rec;
  rec.id = "micro/sim";
  rec.paper_claim =
      "(methodology) wall-clock cost of one execution per protocol and per n, "
      "plus tester throughput";
  rec.setup = "google-benchmark over sim::run_execution and the CR tester";
  return simulcast::bench::run_micro(argc, argv, std::move(rec));
}
