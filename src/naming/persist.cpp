#include "naming/persist.hpp"

#include <cstdio>

#include "common/hash.hpp"
#include "wire/serialize.hpp"

namespace hyperfile {
namespace {

constexpr std::uint64_t kMagic = 0x48464e414d455331ULL;  // "HFNAMES1"

}  // namespace

Result<void> save_registry(const NameRegistry& registry, const std::string& path) {
  wire::Encoder e;
  e.varint(kMagic);
  e.varint(registry.self());

  const auto records = registry.authoritative_records();
  e.varint(records.size());
  for (const auto& [seq, site] : records) {
    e.varint(seq);
    e.varint(site);
  }
  const auto hints = registry.departure_hints();
  e.varint(hints.size());
  for (const auto& [id, site] : hints) {
    e(id);
    e.varint(site);
  }
  wire::Bytes bytes = e.take();
  const std::uint64_t sum = fnv1a(bytes.data(), bytes.size());
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(sum >> (8 * i)));
  }

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return make_error(Errc::kIo, "cannot open '" + path + "' for writing");
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (written != bytes.size()) {
    return make_error(Errc::kIo, "short write to '" + path + "'");
  }
  return {};
}

Result<NameRegistry> load_registry(const std::string& path) {
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

  if (bytes.size() < 8) return make_error(Errc::kDecode, "registry too short");
  const std::size_t body = bytes.size() - 8;
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(bytes[body + i]) << (8 * i);
  }
  if (fnv1a(bytes.data(), body) != stored) {
    return make_error(Errc::kDecode, "registry checksum mismatch");
  }

  wire::Decoder d(std::span(bytes.data(), body));
  auto magic = d.read<std::uint64_t>();
  if (!magic.ok()) return magic.error();
  if (magic.value() != kMagic) {
    return make_error(Errc::kDecode, "not a name-registry file");
  }
  auto self = d.read<SiteId>();
  if (!self.ok()) return self.error();
  NameRegistry registry(self.value());

  auto nrecords = d.read<std::uint64_t>();
  if (!nrecords.ok()) return nrecords.error();
  for (std::uint64_t i = 0; i < nrecords.value(); ++i) {
    auto seq = d.read<LocalSeq>();
    if (!seq.ok()) return seq.error();
    auto site = d.read<SiteId>();
    if (!site.ok()) return site.error();
    registry.record_location(ObjectId(registry.self(), seq.value()),
                             site.value());
  }
  auto nhints = d.read<std::uint64_t>();
  if (!nhints.ok()) return nhints.error();
  for (std::uint64_t i = 0; i < nhints.value(); ++i) {
    auto id = d.read<ObjectId>();
    if (!id.ok()) return id.error();
    auto site = d.read<SiteId>();
    if (!site.ok()) return site.error();
    registry.record_departure(id.value(), site.value());
  }
  if (!d.done()) return make_error(Errc::kDecode, "trailing registry bytes");
  return registry;
}

}  // namespace hyperfile
