// Byte-buffer utilities shared across the SecureCloud stack.
//
// All binary payloads in the project (ciphertexts, MACs, serialized
// messages, file chunks) are carried as `Bytes` and viewed through
// `ByteView` to avoid copies on read-only paths.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace securecloud {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;
using MutableByteView = std::span<std::uint8_t>;

/// Builds a byte buffer from a string's raw contents (no terminator).
inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

/// Interprets a byte buffer as text. Only meaningful for ASCII/UTF-8 payloads.
inline std::string to_string(ByteView b) {
  return std::string(b.begin(), b.end());
}

/// Appends `src` to `dst`.
inline void append(Bytes& dst, ByteView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// Lowercase hex encoding ("deadbeef").
std::string hex_encode(ByteView data);

/// Decodes lowercase/uppercase hex; returns empty on malformed input of
/// odd length or non-hex characters (callers that need to distinguish use
/// `hex_decode_strict`).
Bytes hex_decode(std::string_view hex);

/// Decodes hex; returns false (and leaves `out` empty) on malformed input.
bool hex_decode_strict(std::string_view hex, Bytes& out);

// Fixed-width little/big-endian codecs used by all wire formats. The
// project standardizes on little-endian for its own formats and big-endian
// where a cryptographic spec (SHA-256, GCM) requires it.
inline void store_le32(MutableByteView out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

inline std::uint32_t load_le32(ByteView in) {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

inline void store_le64(MutableByteView out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline std::uint64_t load_le64(ByteView in) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | in[static_cast<std::size_t>(i)];
  return v;
}

inline void store_be32(MutableByteView out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v >> 24);
  out[1] = static_cast<std::uint8_t>(v >> 16);
  out[2] = static_cast<std::uint8_t>(v >> 8);
  out[3] = static_cast<std::uint8_t>(v);
}

inline std::uint32_t load_be32(ByteView in) {
  return static_cast<std::uint32_t>(in[0]) << 24 |
         static_cast<std::uint32_t>(in[1]) << 16 |
         static_cast<std::uint32_t>(in[2]) << 8 |
         static_cast<std::uint32_t>(in[3]);
}

inline void store_be64(MutableByteView out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * (7 - i)));
}

inline std::uint64_t load_be64(ByteView in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | in[static_cast<std::size_t>(i)];
  return v;
}

// Append-style serializers used by the project's wire formats.
inline void put_u8(Bytes& b, std::uint8_t v) { b.push_back(v); }
inline void put_u32(Bytes& b, std::uint32_t v) {
  std::uint8_t tmp[4];
  store_le32(tmp, v);
  b.insert(b.end(), tmp, tmp + 4);
}
inline void put_u64(Bytes& b, std::uint64_t v) {
  std::uint8_t tmp[8];
  store_le64(tmp, v);
  b.insert(b.end(), tmp, tmp + 8);
}
/// Length-prefixed blob (u32 little-endian length).
inline void put_blob(Bytes& b, ByteView blob) {
  put_u32(b, static_cast<std::uint32_t>(blob.size()));
  append(b, blob);
}
inline void put_str(Bytes& b, std::string_view s) {
  put_blob(b, ByteView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

/// Cursor-style deserializer matching the put_* functions. All getters
/// return false on truncated input instead of throwing, so protocol
/// parsers can reject malformed peer data gracefully.
class ByteReader {
 public:
  explicit ByteReader(ByteView data) : data_(data) {}

  bool get_u8(std::uint8_t& v) {
    if (remaining() < 1) return false;
    v = data_[pos_++];
    return true;
  }
  bool get_u32(std::uint32_t& v) {
    if (remaining() < 4) return false;
    v = load_le32(data_.subspan(pos_, 4));
    pos_ += 4;
    return true;
  }
  bool get_u64(std::uint64_t& v) {
    if (remaining() < 8) return false;
    v = load_le64(data_.subspan(pos_, 8));
    pos_ += 8;
    return true;
  }
  bool get_blob(Bytes& out) {
    std::uint32_t n = 0;
    if (!get_u32(n) || remaining() < n) return false;
    out.assign(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
               data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return true;
  }
  bool get_str(std::string& out) {
    Bytes tmp;
    if (!get_blob(tmp)) return false;
    out.assign(tmp.begin(), tmp.end());
    return true;
  }
  /// Reads a u32 element count whose entries each take at least
  /// `min_entry_bytes` on the wire. Fails when that many entries cannot
  /// fit in what is left, so an untrusted count never sizes an allocation.
  bool get_count(std::uint32_t& n, std::size_t min_entry_bytes) {
    std::uint32_t count = 0;
    if (!get_u32(count) ||
        static_cast<std::uint64_t>(count) * min_entry_bytes > remaining()) {
      return false;
    }
    n = count;
    return true;
  }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace securecloud
