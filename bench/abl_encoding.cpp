// Ablation: staging-buffer encoding cost. The mpjbuf layer can stage in a
// non-native byte order (setEncoding); matching the native order makes
// write()/read() straight memcpys — the fast path a real implementation
// must hit. Each call stages `n` ints into a pooled buffer and reads
// them back out.
#include "bench_common.hpp"
#include "jhpc/minijvm/jvm.hpp"
#include "jhpc/mpjbuf/buffer_factory.hpp"
#include "jhpc/support/sizes.hpp"

int main(int argc, char** argv) {
  using namespace jhpc;
  using namespace jhpc::bench;
  return ablation_main(
      argc, argv, "abl_encoding: ns per staged round trip of n ints",
      {"Ints", "native order ns", "swapped order ns"},
      [](const Args& args, Table& table) {
        minijvm::Jvm jvm({.heap_bytes = 64 << 20, .jni_crossing_ns = 0});
        mpjbuf::BufferFactory factory;
        const ByteOrder swapped = native_order() == ByteOrder::kBigEndian
                                      ? ByteOrder::kLittleEndian
                                      : ByteOrder::kBigEndian;
        for (const std::size_t n : sizes_x8(1 << 10, 1 << 18)) {
          auto src = jvm.new_array<minijvm::jint>(n);
          auto dst = jvm.new_array<minijvm::jint>(n);
          const auto roundtrip = [&](ByteOrder encoding) {
            return ns_per_call(args, n * 4, [&] {
              mpjbuf::Buffer buf = factory.get(n * 4);
              buf.set_encoding(encoding);
              buf.write(src, 0, n);
              buf.commit();
              buf.read(dst, 0, n);
              escape(dst);
            });
          };
          table.add_row({format_size(n), fmt_double(roundtrip(native_order()), 1),
                         fmt_double(roundtrip(swapped), 1)});
        }
      });
}
