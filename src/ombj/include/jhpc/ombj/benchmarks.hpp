// OMB-J benchmark bodies.
//
// Each benchmark kind is written once (benchmarks.cpp) and runs inside
// one rank of an already-launched job. It is instantiated for both
// binding environments — mv2j::Env and ompij::Env, which implement the
// same Java API — and for NativeEnv (native_env.hpp), which runs the same
// bodies straight on minimpi: Figure 11's native baseline.
#pragma once

#include <vector>

#include "jhpc/mv2j/env.hpp"
#include "jhpc/ombj/native_env.hpp"
#include "jhpc/ombj/options.hpp"
#include "jhpc/ompij/ompij.hpp"

namespace jhpc::ombj {

/// Run benchmark `kind` over the API `opt.api` selects and return the
/// per-size rows (meaningful on rank 0; the collective benchmarks reduce
/// the per-rank averages as OMB does). `opt.resilient` runs the ULFM
/// recovery sweep (bcast and allreduce only). Throws
/// UnsupportedOperationError for a combination the environment or API
/// cannot run: Open MPI-J arrays on nonblocking point-to-point, arrays on
/// the nonblocking collectives and one-sided kinds, and on NativeEnv the
/// kinds whose calls the adapter does not carry (reduce_scatter, scan,
/// the vectored collectives, one-sided).
template <typename EnvT>
std::vector<ResultRow> run_benchmark(BenchKind kind, EnvT& env,
                                     const BenchOptions& opt);

}  // namespace jhpc::ombj
