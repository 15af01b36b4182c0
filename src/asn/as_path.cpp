#include "asn/as_path.h"

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>

#include "util/strings.h"

namespace asrank {

bool has_loop(std::span<const Asn> hops) {
  constexpr std::size_t kPairwise = 16;  // typical paths: pairwise beats sorting
  std::array<Asn, kPairwise> heads;
  std::size_t runs = 0;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (i > 0 && hops[i] == hops[i - 1]) continue;  // prepending run
    if (runs == kPairwise) {
      std::vector<Asn> all;
      for (std::size_t j = 0; j < hops.size(); ++j) {
        if (j == 0 || hops[j] != hops[j - 1]) all.push_back(hops[j]);
      }
      std::sort(all.begin(), all.end());
      return std::adjacent_find(all.begin(), all.end()) != all.end();
    }
    if (std::find(heads.begin(), heads.begin() + runs, hops[i]) != heads.begin() + runs) {
      return true;
    }
    heads[runs++] = hops[i];
  }
  return false;
}

AsPath::AsPath(std::span<const Asn> hops) {
  reserve(hops.size());
  std::copy(hops.begin(), hops.end(), data());
  size_ = static_cast<std::uint32_t>(hops.size());
}

AsPath::AsPath(std::initializer_list<std::uint32_t> raw) {
  reserve(raw.size());
  for (const std::uint32_t v : raw) push_back(Asn(v));
}

AsPath& AsPath::operator=(const AsPath& other) {
  if (this != &other) {
    size_ = 0;
    reserve(other.size_);
    std::copy_n(other.data(), other.size_, data());
    size_ = other.size_;
  }
  return *this;
}

Asn AsPath::at(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("AsPath::at");
  return data()[i];
}

void AsPath::grow(std::size_t capacity) {
  if (capacity > UINT32_MAX) throw std::length_error("AsPath: too many hops");
  Asn* const buffer = std::allocator<Asn>().allocate(capacity);
  std::copy_n(data(), size_, buffer);
  const std::uint32_t size = size_;
  release();
  heap_ = buffer;
  size_ = size;
  capacity_ = static_cast<std::uint32_t>(capacity);
}

void AsPath::release() noexcept {
  if (on_heap()) std::allocator<Asn>().deallocate(heap_, capacity_);
  size_ = 0;
  capacity_ = kInlineHops;
}

bool operator==(const AsPath& a, const AsPath& b) noexcept {
  return std::ranges::equal(a.hops(), b.hops());
}

bool AsPath::has_reserved_asn() const noexcept {
  for (const Asn hop : hops()) {
    if (hop.reserved()) return true;
  }
  return false;
}

bool AsPath::has_prepending() const noexcept {
  const auto h = hops();
  for (std::size_t i = 1; i < h.size(); ++i) {
    if (h[i] == h[i - 1]) return true;
  }
  return false;
}

bool AsPath::contains(Asn a) const noexcept {
  for (const Asn hop : hops()) {
    if (hop == a) return true;
  }
  return false;
}

std::optional<std::size_t> AsPath::index_of(Asn a) const noexcept {
  const auto h = hops();
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (h[i] == a) return i;
  }
  return std::nullopt;
}

AsPath AsPath::compress_prepending() const {
  const auto h = hops();
  std::size_t runs = 0;
  for (std::size_t i = 0; i < h.size(); ++i) runs += i == 0 || h[i] != h[i - 1];
  AsPath out;
  out.reserve(runs);
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (i == 0 || h[i] != h[i - 1]) out.push_back(h[i]);
  }
  return out;
}

std::string AsPath::str() const {
  std::string out;
  const auto h = hops();
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (i != 0) out += ' ';
    out += h[i].str();
  }
  return out;
}

std::optional<AsPath> AsPath::parse(std::string_view text) {
  AsPath path;
  for (const auto token : util::split_ws(text)) {
    const auto asn = Asn::parse(token);
    if (!asn) return std::nullopt;
    path.push_back(*asn);
  }
  return path;
}

}  // namespace asrank
