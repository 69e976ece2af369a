#include "bigdata/codec.hpp"

namespace securecloud::bigdata {

void put_varint(Bytes& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

bool get_varint(ByteReader& reader, std::uint64_t& v) {
  v = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    std::uint8_t byte = 0;
    if (!reader.get_u8(byte)) return false;
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return true;
    shift += 7;
  }
  return false;  // over-long encoding
}

Bytes encode_series(const std::vector<std::int64_t>& series) {
  Bytes out;
  put_varint(out, series.size());
  std::int64_t previous = 0;
  for (const std::int64_t v : series) {
    put_varint(out, zigzag_encode(v - previous));
    previous = v;
  }
  return out;
}

Result<std::vector<std::int64_t>> decode_series(ByteView wire) {
  ByteReader reader(wire);
  std::uint64_t count = 0;
  if (!get_varint(reader, count)) return Error::protocol("truncated series header");
  if (count > wire.size()) {
    // Each element takes >= 1 byte; a larger count is malformed.
    return Error::protocol("series count exceeds payload");
  }
  std::vector<std::int64_t> series;
  series.reserve(count);
  std::int64_t previous = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t raw = 0;
    if (!get_varint(reader, raw)) return Error::protocol("truncated series element");
    previous += zigzag_decode(raw);
    series.push_back(previous);
  }
  if (!reader.done()) return Error::protocol("trailing series bytes");
  return series;
}

}  // namespace securecloud::bigdata
