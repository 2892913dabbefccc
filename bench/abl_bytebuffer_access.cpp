// Ablation: element-wise access cost of Java arrays vs ByteBuffers — the
// mechanism behind the paper's Figure 18 result that arrays win once
// populate/verify time counts. Reports ns per element of a write or read
// pass over `n` elements for: JArray, direct ByteBuffer (native order
// and big-endian, java.nio's default) and heap ByteBuffer; the int
// columns are where byte-order handling shows.
#include <string>

#include "bench_common.hpp"
#include "jhpc/minijvm/bytebuffer.hpp"
#include "jhpc/minijvm/jvm.hpp"
#include "jhpc/support/sizes.hpp"

int main(int argc, char** argv) {
  using namespace jhpc;
  using namespace jhpc::bench;
  using minijvm::ByteBuffer;
  using minijvm::jbyte;
  using minijvm::jint;
  return ablation_main(
      argc, argv, "abl_bytebuffer_access: ns per element",
      {"Elements", "array write byte", "array read byte",
       "direct write byte", "direct read byte", "heap write byte",
       "array write int", "direct put_int native", "direct put_int BE"},
      [](const Args& args, Table& table) {
        minijvm::Jvm jvm({.heap_bytes = 64 << 20, .jni_crossing_ns = 0});
        for (const std::size_t n : sizes_x8(256, 1 << 20)) {
          auto arr = jvm.new_array<jbyte>(n);
          auto ints = jvm.new_array<jint>(n);
          auto direct = ByteBuffer::allocate_direct(n).order(native_order());
          auto heap = ByteBuffer::allocate(jvm, n);
          auto direct4 = ByteBuffer::allocate_direct(n * 4);
          const auto per_elem = [&](std::size_t bytes, auto&& pass) {
            return fmt_double(ns_per_call(args, bytes, pass) / n, 3);
          };
          const auto read_sum = [&](auto&& get) {
            jint sum = 0;
            for (std::size_t j = 0; j < n; ++j) sum += get(j);
            escape(sum);
          };
          std::vector<std::string> row{format_size(n)};
          row.push_back(per_elem(n, [&] {
            for (std::size_t j = 0; j < n; ++j) arr[j] = jbyte(j & 0x7f);
            escape(arr);
          }));
          row.push_back(per_elem(n, [&] {
            read_sum([&](std::size_t j) { return arr[j]; });
          }));
          row.push_back(per_elem(n, [&] {
            for (std::size_t j = 0; j < n; ++j) direct.put(j, jbyte(j & 0x7f));
            escape(direct);
          }));
          row.push_back(per_elem(n, [&] {
            read_sum([&](std::size_t j) { return direct.get(j); });
          }));
          row.push_back(per_elem(n, [&] {
            for (std::size_t j = 0; j < n; ++j) heap.put(j, jbyte(j & 0x7f));
            escape(heap);
          }));
          row.push_back(per_elem(n * 4, [&] {
            for (std::size_t j = 0; j < n; ++j) ints[j] = jint(j);
            escape(ints);
          }));
          for (const ByteOrder order :
               {native_order(), ByteOrder::kBigEndian}) {
            direct4.order(order);
            row.push_back(per_elem(n * 4, [&] {
              for (std::size_t j = 0; j < n; ++j)
                direct4.put_int(j * 4, jint(j));
              escape(direct4);
            }));
          }
          table.add_row(std::move(row));
        }
      });
}
