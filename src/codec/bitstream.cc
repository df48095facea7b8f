#include "codec/bitstream.h"

namespace blot {

Bytes BitWriter::Finish() {
  if (pending_bits_ > 0) {
    buffer_.push_back(static_cast<std::uint8_t>(pending_));
    pending_ = 0;
    pending_bits_ = 0;
  }
  return std::move(buffer_);
}

}  // namespace blot
