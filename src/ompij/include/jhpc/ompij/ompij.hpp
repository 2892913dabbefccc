// The Open MPI Java bindings baseline ("Open MPI-J" in the paper).
//
// Same public API as MVAPICH2-J (which adopted this API), and the same
// binding core underneath (jhpc/mv2j/comm.hpp), instantiated with the
// kOmpij vendor policy (jhpc/mv2j/policy.hpp). The three policy fields
// are the implementation choices the paper's evaluation turns on:
//
//   * staging = kPerCall: Java arrays are staged through a fresh native
//     buffer on EVERY call (Get/Set<Type>ArrayRegion, sized by the
//     message): a copy in, and a copy back for receive-like operations.
//     No staging pool, so Env has no pool() and RunOptions no `pool`.
//     Java arrays with non-blocking point-to-point operations are NOT
//     supported: iSend/iRecv with arrays throw UnsupportedOperationError
//     (this is why the paper's bandwidth figures have no "Open MPI-J
//     arrays" series). Neither are derived datatypes on arrays nor the
//     offset overloads.
//   * marshal_per_call = true: a Datatype/Comm object graph is marshalled
//     per call (one extra JNI handle check on blocking ByteBuffer
//     send/recv and on every Win origin).
//   * suite = kOmpiBasic: the native library underneath is the `basic`
//     collective suite — flat linear algorithms — which is where the
//     paper's 6.2x/2.76x collective gaps come from.
#pragma once

#include "jhpc/mv2j/env.hpp"
#include "jhpc/mv2j/win.hpp"

namespace jhpc::ompij {

using minijvm::ByteBuffer;
using minijvm::JArray;
using minijvm::JavaPrimitive;
// The API constants are the same Java API; reuse the mv2j definitions.
using mv2j::ANY_SOURCE;
using mv2j::ANY_TAG;
using mv2j::Datatype;
using mv2j::Errhandler;
using mv2j::ERRORS_ARE_FATAL;
using mv2j::ERRORS_RETURN;
using mv2j::kind_of;
using mv2j::LOCK_EXCLUSIVE;
using mv2j::LOCK_SHARED;
using mv2j::LockType;
using mv2j::Op;
using mv2j::Request;
using mv2j::Status;

/// mpi.Comm of the Open MPI-J baseline.
using Comm = bindings::Comm<bindings::kOmpij>;
/// mpi.Win of the Open MPI-J baseline (direct ByteBuffer origins only).
using Win = bindings::Win<bindings::kOmpij>;
/// Job-level options (no pool knob: this baseline has no pool).
using RunOptions = bindings::RunOptions<bindings::kOmpij>;
/// One rank's Open MPI-J environment: a JVM plus COMM_WORLD.
using Env = bindings::Env<bindings::kOmpij>;
/// Launch an Open MPI-J job.
using bindings::run;

}  // namespace jhpc::ompij
