#include "store/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <span>

#include "common/hash.hpp"
#include "wire/serialize.hpp"

namespace hyperfile {
namespace {
constexpr std::uint64_t kMagic = 0x48464c5348415032ULL;  // "HFLSHAP2"

/// Trailer: FNV-1a of everything before it, fixed 8 bytes little-endian.
void append_checksum(wire::Bytes& bytes) {
  const std::uint64_t sum = fnv1a(bytes.data(), bytes.size());
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(sum >> (8 * i)));
  }
}

Result<std::span<const std::uint8_t>> verify_checksum(
    std::span<const std::uint8_t> data) {
  if (data.size() < 8) {
    return make_error(Errc::kDecode, "snapshot too short for checksum");
  }
  const std::size_t body = data.size() - 8;
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(data[body + i]) << (8 * i);
  }
  if (fnv1a(data.data(), body) != stored) {
    return make_error(Errc::kDecode, "snapshot checksum mismatch (corrupt?)");
  }
  return data.subspan(0, body);
}

}  // namespace

wire::Bytes snapshot_store(const SiteStore& store) {
  wire::Encoder e;
  e.varint(kMagic);
  e.varint(store.site());
  e.varint(store.next_seq());
  e.varint(store.size());
  store.for_each([&](const Object& obj) { e(obj); });
  const auto names = store.set_names();
  e.varint(names.size());
  for (const auto& name : names) {
    e.string(name);
    e(*store.find_set(name));
  }
  wire::Bytes bytes = e.take();
  append_checksum(bytes);
  return bytes;
}

Result<SiteStore> restore_store(std::span<const std::uint8_t> data) {
  auto body = verify_checksum(data);
  if (!body.ok()) return body.error();
  wire::Decoder d(body.value());
  auto magic = d.read<std::uint64_t>();
  if (!magic.ok()) return magic.error();
  if (magic.value() != kMagic) {
    return make_error(Errc::kDecode, "not a HyperFile snapshot");
  }
  auto site = d.read<SiteId>();
  if (!site.ok()) return site.error();
  SiteStore store(site.value());
  auto next_seq = d.read<std::uint64_t>();
  if (!next_seq.ok()) return next_seq.error();
  auto count = d.read<std::uint64_t>();
  if (!count.ok()) return count.error();
  // Every object costs at least one byte on the wire, so a count beyond the
  // remaining bytes is corrupt framing — reject it up front instead of
  // looping until the decoder underflows.
  if (count.value() > d.remaining()) {
    return make_error(Errc::kDecode, "snapshot object count exceeds payload");
  }
  LocalSeq max_seq = 0;
  for (std::uint64_t i = 0; i < count.value(); ++i) {
    auto obj = d.read<Object>();
    if (!obj.ok()) return obj.error();
    const ObjectId id = obj.value().id();
    if (id.birth_site == store.site() && id.seq > max_seq) max_seq = id.seq;
    store.put(std::move(obj).value());
  }
  auto nsets = d.read<std::uint64_t>();
  if (!nsets.ok()) return nsets.error();
  for (std::uint64_t i = 0; i < nsets.value(); ++i) {
    auto name = d.read<std::string>();
    if (!name.ok()) return name.error();
    auto id = d.read<ObjectId>();
    if (!id.ok()) return id.error();
    store.bind_set(name.value(), id.value());
  }
  if (!d.done()) return make_error(Errc::kDecode, "trailing snapshot bytes");
  // Restore the allocator *after* puts so reloaded ids don't bump it. Guard
  // against a (corrupt or hand-edited) counter that lags the objects it
  // ships: allocate() must never re-issue the id of a restored object.
  store.set_next_seq(std::max<LocalSeq>(next_seq.value(), max_seq + 1));
  return store;
}

Result<void> save_snapshot(const SiteStore& store, const std::string& path) {
  const wire::Bytes bytes = snapshot_store(store);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return make_error(Errc::kIo, "cannot open '" + path + "' for writing");
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  // fflush pushes to the OS; fsync pushes to the platter. Without the fsync
  // a later rename can publish a snapshot whose *bytes* are still only in
  // the page cache — a power loss then leaves a checkpoint name pointing at
  // garbage while the WAL it licensed truncating is gone (DESIGN.md §18).
  const bool flushed = written == bytes.size() && std::fflush(f) == 0 &&
                       ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  if (!flushed) {
    return make_error(Errc::kIo, "short write to '" + path + "'");
  }
  return {};
}

Result<void> fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return make_error(Errc::kIo, "cannot open directory '" + dir +
                                     "': " + std::strerror(errno));
  }
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) {
    return make_error(Errc::kIo, "fsync of directory '" + dir + "' failed");
  }
  return {};
}

Result<SiteStore> load_snapshot(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return make_error(Errc::kIo, "cannot open '" + path + "' for reading");
  }
  wire::Bytes bytes;
  std::uint8_t buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return restore_store(bytes);
}

}  // namespace hyperfile
