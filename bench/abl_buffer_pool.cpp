// Ablation: why the buffering layer pools its direct ByteBuffers —
// acquiring staging storage from the pool vs allocating a fresh direct
// buffer per message ("avoids the overhead of creating a ByteBuffer
// every time a message ... is communicated", Section IV-A).
#include "bench_common.hpp"
#include "jhpc/minijvm/bytebuffer.hpp"
#include "jhpc/mpjbuf/buffer_factory.hpp"
#include "jhpc/support/sizes.hpp"

int main(int argc, char** argv) {
  using namespace jhpc;
  using namespace jhpc::bench;
  return ablation_main(
      argc, argv, "abl_buffer_pool: ns per acquire + release",
      {"Size", "pooled ns", "fresh direct ns"},
      [](const Args& args, Table& table) {
        mpjbuf::BufferFactory factory;
        for (const std::size_t n : sizes_x8(1 << 10, 4 << 20)) {
          const double pooled = ns_per_call(args, n, [&] {
            mpjbuf::Buffer b = factory.get(n);
            escape(b.native_address());
          });
          const double fresh = ns_per_call(args, n, [&] {
            minijvm::ByteBuffer b = minijvm::ByteBuffer::allocate_direct(n);
            escape(b.storage_address(0));
          });
          table.add_row(
              {format_size(n), fmt_double(pooled, 1), fmt_double(fresh, 1)});
        }
      });
}
