// Ablation: the three strategies for getting Java array data to native
// code, per paper Section IV:
//   1. Get<Type>ArrayElements / Release  — full copy out + copy back,
//   2. GetPrimitiveArrayCritical         — pin, no copy (GC blocked),
//   3. mpjbuf pooled staging             — MVAPICH2-J's buffering layer.
// Measured as "stage `size` bytes for a send, then release", with the
// bindings' modelled JNI crossing burned per call.
#include "bench_common.hpp"
#include "jhpc/minijvm/jni.hpp"
#include "jhpc/minijvm/jvm.hpp"
#include "jhpc/mpjbuf/buffer_factory.hpp"
#include "jhpc/support/sizes.hpp"

int main(int argc, char** argv) {
  using namespace jhpc;
  using namespace jhpc::bench;
  using minijvm::jbyte;
  return ablation_main(
      argc, argv, "abl_jni_array_strategies: ns per staged send",
      {"Size", "Get/ReleaseArrayElements ns", "PrimitiveArrayCritical ns",
       "mpjbuf pooled ns"},
      [](const Args& args, Table& table) {
        minijvm::Jvm jvm({.heap_bytes = 64 << 20, .jni_crossing_ns = 400});
        minijvm::JniEnv& jni = jvm.jni();
        mpjbuf::BufferFactory factory;
        for (const std::size_t n : sizes_x8(1 << 10, 4 << 20)) {
          auto arr = jvm.new_array<jbyte>(n);
          const double elements = ns_per_call(args, n, [&] {
            jni.crossing();
            jbyte* p = jni.get_array_elements(arr);
            escape(p);
            // Sender-side: no write-back needed.
            jni.release_array_elements(arr, p, minijvm::ReleaseMode::kAbort);
          });
          const double critical = ns_per_call(args, n, [&] {
            jni.crossing();
            jbyte* p = jni.get_primitive_array_critical(arr);
            escape(p);
            jni.release_primitive_array_critical(arr, p);
          });
          const double pooled = ns_per_call(args, n, [&] {
            mpjbuf::Buffer stage = factory.get(n);
            stage.write(arr, 0, n);
            stage.commit();
            jni.crossing();
            escape(stage.native_address());
          });  // free() back to the pool via the destructor
          table.add_row({format_size(n), fmt_double(elements, 1),
                         fmt_double(critical, 1), fmt_double(pooled, 1)});
        }
      });
}
