#include "scone/fs_protection.hpp"

namespace securecloud::scone {

namespace {

/// Nonce for (file, chunk, version): the version is globally fresh per
/// chunk write, and the chunk index separates positions, so nonces never
/// repeat under one file key.
crypto::GcmNonce chunk_nonce(std::uint64_t chunk_index, std::uint64_t version) {
  return crypto::nonce_from_counter(version, static_cast<std::uint32_t>(chunk_index));
}

Bytes chunk_aad(const std::string& path, std::uint64_t chunk_index,
                std::uint64_t version) {
  Bytes aad;
  put_str(aad, path);
  put_u64(aad, chunk_index);
  put_u64(aad, version);
  return aad;
}

std::string chunk_path(const std::string& path, std::size_t chunk_index) {
  return path + ".chunk." + std::to_string(chunk_index);
}

}  // namespace

Bytes FsProtection::serialize() const {
  Bytes b;
  put_str(b, "SCFSPF1");
  put_u32(b, static_cast<std::uint32_t>(files.size()));
  for (const auto& [path, fp] : files) {
    put_str(b, path);
    put_u64(b, fp.file_size);
    put_u32(b, fp.chunk_size);
    put_blob(b, fp.file_key);
    put_u32(b, static_cast<std::uint32_t>(fp.chunk_versions.size()));
    for (std::size_t i = 0; i < fp.chunk_versions.size(); ++i) {
      put_u64(b, fp.chunk_versions[i]);
      append(b, fp.chunk_tags[i]);
    }
  }
  return b;
}

Result<FsProtection> FsProtection::deserialize(ByteView wire) {
  ByteReader r(wire);
  std::string magic;
  if (!r.get_str(magic) || magic != "SCFSPF1") {
    return Error::protocol("bad FSPF magic");
  }
  std::uint32_t file_count = 0;
  if (!r.get_u32(file_count)) return Error::protocol("truncated FSPF");

  FsProtection out;
  for (std::uint32_t f = 0; f < file_count; ++f) {
    std::string path;
    FileProtection fp;
    std::uint32_t chunks = 0;
    if (!r.get_str(path) || !r.get_u64(fp.file_size) || !r.get_u32(fp.chunk_size) ||
        !r.get_blob(fp.file_key) || !r.get_count(chunks, 24)) {  // u64 + 16B tag
      return Error::protocol("truncated FSPF entry");
    }
    if (fp.chunk_size == 0) return Error::protocol("zero chunk size");
    fp.chunk_versions.reserve(chunks);
    fp.chunk_tags.reserve(chunks);
    for (std::uint32_t c = 0; c < chunks; ++c) {
      std::uint64_t version = 0;
      if (!r.get_u64(version)) return Error::protocol("truncated FSPF chunk");
      crypto::GcmTag tag;
      for (auto& byte : tag) {
        if (!r.get_u8(byte)) return Error::protocol("truncated FSPF tag");
      }
      fp.chunk_versions.push_back(version);
      fp.chunk_tags.push_back(tag);
    }
    out.files.emplace(std::move(path), std::move(fp));
  }
  if (!r.done()) return Error::protocol("trailing FSPF bytes");
  return out;
}

Status FsProtectionBuilder::protect_file(const std::string& path, ByteView plaintext) {
  if (protection_.files.count(path)) {
    return Error::invalid_argument("file already protected: " + path);
  }
  FileProtection fp;
  fp.file_size = plaintext.size();
  fp.chunk_size = chunk_size_;
  fp.file_key = entropy_.bytes(16);
  crypto::AesGcm gcm(fp.file_key);

  const std::size_t chunks = (plaintext.size() + chunk_size_ - 1) / chunk_size_;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t off = c * chunk_size_;
    const std::size_t take = std::min<std::size_t>(chunk_size_, plaintext.size() - off);
    const std::uint64_t version = 1;
    crypto::GcmTag tag;
    const Bytes ct = gcm.seal(chunk_nonce(c, version), chunk_aad(path, c, version),
                              plaintext.subspan(off, take), tag);
    SC_RETURN_IF_ERROR(fs_.write_file(chunk_path(path, c), ct));
    fp.chunk_versions.push_back(version);
    fp.chunk_tags.push_back(tag);
  }
  protection_.files.emplace(path, std::move(fp));
  return {};
}

Result<Bytes> ShieldedFileSystem::read_chunk(const std::string& path,
                                             const FileProtection& fp,
                                             std::size_t chunk_index) const {
  auto ct = fs_.read_file(chunk_path(path, chunk_index));
  if (!ct.ok()) {
    return Error::integrity("protected chunk missing from host FS: " + path);
  }
  crypto::AesGcm gcm(fp.file_key);
  const std::uint64_t version = fp.chunk_versions[chunk_index];
  auto plain = gcm.open(chunk_nonce(chunk_index, version),
                        chunk_aad(path, chunk_index, version), *ct,
                        fp.chunk_tags[chunk_index]);
  if (!plain.ok()) {
    return Error::integrity("chunk failed authentication (tampering or rollback): " +
                            path + "#" + std::to_string(chunk_index));
  }
  return std::move(plain).value();
}

Status ShieldedFileSystem::write_chunk(const std::string& path, FileProtection& fp,
                                       std::size_t chunk_index, ByteView chunk_plain) {
  crypto::AesGcm gcm(fp.file_key);
  // Fresh version per write: nonce uniqueness + rollback detection (the
  // expected version lives in the FSPF, which the enclave holds).
  const std::uint64_t version = fp.chunk_versions[chunk_index] + 1;
  crypto::GcmTag tag;
  const Bytes ct = gcm.seal(chunk_nonce(chunk_index, version),
                            chunk_aad(path, chunk_index, version), chunk_plain, tag);
  SC_RETURN_IF_ERROR(fs_.write_file(chunk_path(path, chunk_index), ct));
  fp.chunk_versions[chunk_index] = version;
  fp.chunk_tags[chunk_index] = tag;
  return {};
}

Result<Bytes> ShieldedFileSystem::read(const std::string& path, std::uint64_t offset,
                                       std::size_t length) const {
  auto it = protection_.files.find(path);
  if (it == protection_.files.end()) return Error::not_found("no such protected file: " + path);
  const FileProtection& fp = it->second;

  if (offset > fp.file_size) return Error::invalid_argument("read past EOF");
  length = std::min<std::size_t>(length, fp.file_size - offset);

  Bytes out;
  out.reserve(length);
  std::uint64_t pos = offset;
  while (out.size() < length) {
    const std::size_t chunk_index = pos / fp.chunk_size;
    const std::size_t within = pos % fp.chunk_size;
    auto chunk = read_chunk(path, fp, chunk_index);
    if (!chunk.ok()) return chunk.error();
    // A chunk may be stored shorter than its logical extent when a later
    // write grew the file past it (sparse region): the gap reads as zeros.
    const std::size_t take =
        std::min<std::size_t>(fp.chunk_size - within, length - out.size());
    if (chunk->size() < within + take) chunk->resize(within + take, 0);
    out.insert(out.end(), chunk->begin() + static_cast<std::ptrdiff_t>(within),
               chunk->begin() + static_cast<std::ptrdiff_t>(within + take));
    pos += take;
  }
  return out;
}

Result<Bytes> ShieldedFileSystem::read_all(const std::string& path) const {
  auto it = protection_.files.find(path);
  if (it == protection_.files.end()) return Error::not_found("no such protected file: " + path);
  return read(path, 0, it->second.file_size);
}

Status ShieldedFileSystem::write(const std::string& path, std::uint64_t offset,
                                 ByteView data) {
  auto it = protection_.files.find(path);
  if (it == protection_.files.end()) return Error::not_found("no such protected file: " + path);
  FileProtection& fp = it->second;

  const std::uint64_t end = offset + data.size();
  const std::size_t needed_chunks =
      end == 0 ? 0 : static_cast<std::size_t>((end + fp.chunk_size - 1) / fp.chunk_size);

  // Grow the file with zero-filled chunks if writing past EOF.
  while (fp.chunk_count() < needed_chunks) {
    fp.chunk_versions.push_back(0);
    fp.chunk_tags.push_back({});
    const std::size_t new_index = fp.chunk_count() - 1;
    SC_RETURN_IF_ERROR(write_chunk(path, fp, new_index, Bytes{}));
  }

  std::uint64_t pos = offset;
  std::size_t consumed = 0;
  while (consumed < data.size()) {
    const std::size_t chunk_index = static_cast<std::size_t>(pos / fp.chunk_size);
    const std::size_t within = static_cast<std::size_t>(pos % fp.chunk_size);
    const std::size_t take =
        std::min<std::size_t>(fp.chunk_size - within, data.size() - consumed);

    // Read-modify-write the chunk (unless fully overwritten).
    Bytes chunk_plain;
    if (within == 0 && take == fp.chunk_size) {
      chunk_plain.assign(data.begin() + static_cast<std::ptrdiff_t>(consumed),
                         data.begin() + static_cast<std::ptrdiff_t>(consumed + take));
    } else {
      auto existing = read_chunk(path, fp, chunk_index);
      if (!existing.ok()) return existing.error();
      chunk_plain = std::move(existing).value();
      // The stored chunk may physically extend past the logical EOF
      // (a previous truncation kept the chunk but shrank file_size);
      // those stale bytes are not file content and must not leak back.
      const std::uint64_t chunk_start =
          static_cast<std::uint64_t>(chunk_index) * fp.chunk_size;
      const std::uint64_t logical_in_chunk =
          fp.file_size > chunk_start
              ? std::min<std::uint64_t>(fp.file_size - chunk_start, fp.chunk_size)
              : 0;
      if (chunk_plain.size() > logical_in_chunk) chunk_plain.resize(logical_in_chunk);
      if (chunk_plain.size() < within + take) chunk_plain.resize(within + take, 0);
      std::copy(data.begin() + static_cast<std::ptrdiff_t>(consumed),
                data.begin() + static_cast<std::ptrdiff_t>(consumed + take),
                chunk_plain.begin() + static_cast<std::ptrdiff_t>(within));
    }
    SC_RETURN_IF_ERROR(write_chunk(path, fp, chunk_index, chunk_plain));
    pos += take;
    consumed += take;
  }

  fp.file_size = std::max<std::uint64_t>(fp.file_size, end);
  return {};
}

Status ShieldedFileSystem::write_all(const std::string& path, ByteView data) {
  auto it = protection_.files.find(path);
  if (it == protection_.files.end()) return Error::not_found("no such protected file: " + path);
  FileProtection& fp = it->second;

  // Truncate: drop surplus chunks from both metadata and host FS.
  const std::size_t new_chunks =
      data.empty() ? 0 : (data.size() + fp.chunk_size - 1) / fp.chunk_size;
  for (std::size_t c = new_chunks; c < fp.chunk_count(); ++c) {
    (void)fs_.remove(chunk_path(path, c));
  }
  // Shrink only: growth is handled (with host-FS backing) by write().
  const std::size_t keep = std::min(new_chunks, fp.chunk_count());
  fp.chunk_versions.resize(keep);
  fp.chunk_tags.resize(keep);
  fp.file_size = 0;
  if (data.empty()) return {};
  return write(path, 0, data);
}

Status ShieldedFileSystem::create(const std::string& path, std::uint32_t chunk_size) {
  if (protection_.files.count(path)) {
    return Error::invalid_argument("protected file exists: " + path);
  }
  if (chunk_size == 0) return Error::invalid_argument("zero chunk size");
  FileProtection fp;
  fp.chunk_size = chunk_size;
  fp.file_key = entropy_.bytes(16);
  protection_.files.emplace(path, std::move(fp));
  return {};
}

Status ShieldedFileSystem::remove(const std::string& path) {
  auto it = protection_.files.find(path);
  if (it == protection_.files.end()) return Error::not_found("no such protected file: " + path);
  for (std::size_t c = 0; c < it->second.chunk_count(); ++c) {
    (void)fs_.remove(chunk_path(path, c));
  }
  protection_.files.erase(it);
  return {};
}

Result<std::uint64_t> ShieldedFileSystem::size_of(const std::string& path) const {
  auto it = protection_.files.find(path);
  if (it == protection_.files.end()) return Error::not_found("no such protected file: " + path);
  return it->second.file_size;
}

std::vector<std::string> ShieldedFileSystem::list() const {
  std::vector<std::string> out;
  out.reserve(protection_.files.size());
  for (const auto& [path, _] : protection_.files) out.push_back(path);
  return out;
}

Bytes seal_protection_file(const FsProtection& protection, ByteView key,
                           crypto::EntropySource& entropy) {
  crypto::AesGcm gcm(key);
  crypto::GcmNonce nonce;
  entropy.fill(MutableByteView(nonce.data(), nonce.size()));
  Bytes out;
  put_str(out, "SCFSPF-ENC1");
  gcm.seal_combined(nonce, to_bytes("fspf"), protection.serialize(), out);
  return out;
}

Result<FsProtection> open_protection_file(ByteView sealed, ByteView key) {
  ByteReader r(sealed);
  std::string magic;
  if (!r.get_str(magic) || magic != "SCFSPF-ENC1") {
    return Error::protocol("not an encrypted FSPF");
  }
  Bytes rest(sealed.begin() + static_cast<std::ptrdiff_t>(sealed.size() - r.remaining()),
             sealed.end());
  crypto::AesGcm gcm(key);
  auto plain = gcm.open_combined(to_bytes("fspf"), rest);
  if (!plain.ok()) {
    return Error::integrity("FSPF decryption failed (wrong key or tampering)");
  }
  return FsProtection::deserialize(*plain);
}

Bytes sign_protection_file(const FsProtection& protection,
                           const crypto::Ed25519KeyPair& signer) {
  const Bytes payload = protection.serialize();
  const auto sig = crypto::ed25519_sign(signer, payload);
  Bytes out;
  put_str(out, "SCFSPF-SIG1");
  put_blob(out, payload);
  append(out, sig);
  return out;
}

Result<FsProtection> verify_protection_file(ByteView signed_blob,
                                            const crypto::Ed25519PublicKey& signer) {
  ByteReader r(signed_blob);
  std::string magic;
  Bytes payload;
  if (!r.get_str(magic) || magic != "SCFSPF-SIG1" || !r.get_blob(payload)) {
    return Error::protocol("not a signed FSPF");
  }
  crypto::Ed25519Signature sig;
  if (r.remaining() != sig.size()) return Error::protocol("bad FSPF signature length");
  for (auto& b : sig) {
    if (!r.get_u8(b)) return Error::protocol("truncated FSPF signature");
  }
  if (!crypto::ed25519_verify(signer, payload, sig)) {
    return Error::integrity("FSPF signature verification failed");
  }
  return FsProtection::deserialize(payload);
}

}  // namespace securecloud::scone
