// Codecs for "efficient transmission of large amounts of data" (§III-B).
//
// Smart-meter telemetry is highly compressible: consecutive readings
// differ by small amounts and timestamps are near-regular, so delta +
// zigzag + varint coding shrinks an integer series several times over.
// It runs on plaintext, before the bytes reach the transfer layer, which
// seals them as given.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace securecloud::bigdata {

// --- varint / zigzag -------------------------------------------------------

/// LEB128 unsigned varint.
void put_varint(Bytes& out, std::uint64_t v);
bool get_varint(ByteReader& reader, std::uint64_t& v);

/// Zigzag maps signed to unsigned so small magnitudes stay short.
inline std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

// --- integer series (delta + zigzag + varint) ------------------------------

/// Encodes a series as first value + deltas.
Bytes encode_series(const std::vector<std::int64_t>& series);
Result<std::vector<std::int64_t>> decode_series(ByteView wire);

}  // namespace securecloud::bigdata
