// Factor persistence: a versioned binary format for factorized TileHMatrix
// instances plus an mmap-backed loader, so a serve::Session cold-starts
// from disk in milliseconds instead of refactorizing (DESIGN.md section 13).
// The tile is the unit of persistence, as it is the unit of work: every
// tile record carries its own checksum, and a load restores the tiles as
// one task each on the caller's engine.
//
// File layout, format version 2 (all integers little-endian on the writing
// host; the header endianness word detects a mismatched reader):
//
//   [header]   fixed 160 bytes: magic/version/endianness, scalar tag,
//              factor kind, structure + cluster-tree signatures, the byte
//              count and hash of the metadata block, and every
//              TileHOptions field that feeds structure_signature()
//   [metadata] the cluster tree (points, permutation, nodes with
//              offset/size/children only: parents and bounding boxes are
//              recomputed on load, tile roots), then the tile table: nt^2
//              entries {offset, bytes, hash} in row-major tile order;
//              zero-padded so the first tile record starts 64-byte aligned
//   [tiles]    one record per tile in the same order via
//              hmat::write_payload, every scalar run 64-byte aligned so an
//              mmap'd reader could hand aligned slices straight to kernels,
//              and each record zero-padded to a multiple of 64 bytes, so
//              the records tile the rest of the file exactly
//
// Every byte after the header is covered by a hash (hash_bytes): the
// metadata block by the header's, each tile record by its table entry's.
//
// Trust model: no byte is parsed before the hash covering it is verified,
// and nothing parsed is used before it is validated. The metadata hash is
// checked first; the tree block then goes through ClusterTree::from_parts's
// structural checks, and every table entry must be aligned, contiguous with
// the previous record and inside the file, the last ending exactly at the
// end of the file — all before any tile is allocated. The reconstructed
// skeleton's structure_signature() must equal the stored one. Then one
// "restore" task per tile verifies that tile's hash before parsing it, and
// must consume its record exactly. A matrix is returned only after every
// tile has passed; a truncated, corrupted, or wrong-structure file fails
// with a clean Error, no partially-populated matrix escapes, and the engine
// stays usable (wait_all drains every task before it rethrows).
#pragma once

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/counters.hpp"
#include "common/hash.hpp"
#include "core/tile_h.hpp"
#include "hmatrix/io.hpp"

namespace hcham::lifecycle {

enum class FactorKind : std::uint32_t { Lu = 0, Cholesky = 1 };

namespace detail {

inline constexpr std::uint32_t kMagic = 0x46484348u;  // "HCHF"
inline constexpr std::uint32_t kVersion = 2;
inline constexpr std::uint32_t kEndianness = 0x01020304u;

// Fixed header offsets (bytes). Tests poke these to simulate targeted
// corruption; bump kVersion if the layout ever changes.
inline constexpr std::size_t kVersionOffset = 4;
inline constexpr std::size_t kStructureSigOffset = 24;
inline constexpr std::size_t kMetaBytesOffset = 40;
inline constexpr std::size_t kMetaHashOffset = 48;
inline constexpr std::size_t kNumTilesOffset = 72;
inline constexpr std::size_t kHeaderBytes = 160;
/// One tile-table entry: u64 offset, u64 bytes, u64 hash.
inline constexpr std::size_t kTileEntryBytes = 24;

template <typename T>
constexpr std::uint32_t scalar_tag() {
  if constexpr (std::is_same_v<T, float>) return 1;
  if constexpr (std::is_same_v<T, double>) return 2;
  if constexpr (std::is_same_v<T, std::complex<float>>) return 3;
  if constexpr (std::is_same_v<T, std::complex<double>>) return 4;
  return 0;
}

constexpr std::size_t align64(std::size_t at) {
  return (at + 63) & ~std::size_t{63};
}

/// Writer-side byte sink. Over a buffer it appends to it; without one it
/// only counts, so the sizing walk makes the very put_* calls (and so
/// follows the same alignment rules) as the writing pass.
class VecSink {
 public:
  VecSink() = default;
  explicit VecSink(std::vector<unsigned char>& buf) : buf_(&buf) {}

  void put_bytes(const void* p, std::size_t n) {
    if (buf_ != nullptr) {
      const auto* b = static_cast<const unsigned char*>(p);
      buf_->insert(buf_->end(), b, b + n);
    }
    size_ += n;
  }
  void put_u32(std::uint32_t v) { put_bytes(&v, sizeof v); }
  void put_u64(std::uint64_t v) { put_bytes(&v, sizeof v); }
  void put_i64(index_t v) {
    const std::int64_t w = static_cast<std::int64_t>(v);
    put_bytes(&w, sizeof w);
  }
  void put_f64(double v) { put_bytes(&v, sizeof v); }
  template <typename T>
  void put_scalars(const T* p, index_t count) {
    align64();
    put_bytes(p, sizeof(T) * static_cast<std::size_t>(count));
  }
  void align64() {
    size_ = detail::align64(size_);
    if (buf_ != nullptr) buf_->resize(size_, 0);
  }
  std::size_t size() const { return size_; }
  void patch_u64(std::size_t at, std::uint64_t v) {
    std::memcpy(buf_->data() + at, &v, sizeof v);
  }

 private:
  std::vector<unsigned char>* buf_ = nullptr;
  std::size_t size_ = 0;
};

/// Bounds-checked reader over a slice of the mapped file; every access
/// that would run off the end throws instead of reading garbage. Scalar
/// alignment is relative to `base`, so a slice must start 64-byte aligned
/// within the file for the cursor to stay in lockstep with the writer.
class MapCursor {
 public:
  MapCursor(const unsigned char* base, std::size_t size)
      : base_(base), size_(size) {}

  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  index_t i64() { return static_cast<index_t>(get<std::int64_t>()); }
  double f64() { return get<double>(); }
  template <typename T>
  void scalars(T* dst, index_t count) {
    align64();
    const std::size_t n = sizeof(T) * static_cast<std::size_t>(count);
    need(n);
    std::memcpy(dst, base_ + at_, n);
    at_ += n;
  }
  void align64() { at_ = detail::align64(at_); }
  std::size_t pos() const { return at_; }
  /// Unread bytes of the slice; bounds element counts read from the file
  /// before anything is allocated from them (align64 may park at_ past the
  /// end).
  std::size_t remaining() const { return at_ >= size_ ? 0 : size_ - at_; }

 private:
  template <typename T>
  T get() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, base_ + at_, sizeof v);
    at_ += sizeof v;
    return v;
  }
  void need(std::size_t n) {
    if (at_ > size_ || n > size_ - at_)
      throw Error("factor store: truncated file");
  }

  const unsigned char* base_;
  std::size_t size_;
  std::size_t at_ = 0;
};

struct MappedFile {
  explicit MappedFile(const std::string& path) {
    fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw Error("factor store: cannot open " + path);
    struct stat st {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      throw Error("factor store: cannot stat " + path);
    }
    len = static_cast<std::size_t>(st.st_size);
    if (len > 0) {
      ptr = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
      if (ptr == MAP_FAILED) {
        ::close(fd);
        throw Error("factor store: mmap failed for " + path);
      }
    }
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() {
    if (ptr != nullptr && ptr != MAP_FAILED) ::munmap(ptr, len);
    if (fd >= 0) ::close(fd);
  }
  const unsigned char* data() const {
    return static_cast<const unsigned char*>(ptr);
  }
  std::size_t size() const { return len; }

  int fd = -1;
  void* ptr = nullptr;
  std::size_t len = 0;
};

inline void write_file_atomic(const std::string& path,
                              const std::vector<unsigned char>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) throw Error("factor store: cannot write " + tmp);
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    throw Error("factor store: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("factor store: cannot rename into place: " + path);
  }
}

/// Cluster tree + tile roots: the part of the metadata block before the
/// tile table.
template <typename T>
void put_tree(const core::TileHMatrix<T>& m, VecSink& sink) {
  const cluster::ClusterTree& tree = m.tree();
  sink.put_i64(tree.num_points());
  for (const cluster::Point3& p : tree.points()) {
    sink.put_f64(p.x);
    sink.put_f64(p.y);
    sink.put_f64(p.z);
  }
  sink.put_i64(static_cast<index_t>(tree.permutation().size()));
  for (const index_t p : tree.permutation()) sink.put_i64(p);
  sink.put_i64(tree.num_nodes());
  for (index_t i = 0; i < tree.num_nodes(); ++i) {
    const cluster::ClusterTree::Node& nd = tree.node(i);
    sink.put_i64(nd.offset);
    sink.put_i64(nd.size);
    sink.put_i64(nd.child[0]);
    sink.put_i64(nd.child[1]);
  }
  const std::vector<index_t>& roots = m.clustering().tile_roots;
  sink.put_i64(static_cast<index_t>(roots.size()));
  for (const index_t r : roots) sink.put_i64(r);
}

/// One tile record, padded to a multiple of 64 bytes.
template <typename T>
void put_tile(const tile::Tile<T>& t, VecSink& sink) {
  if (t.format == tile::TileFormat::Full) {
    sink.put_u32(hmat::kPayloadFull);
    sink.put_scalars(t.full.data(), t.m * t.n);
  } else {
    hmat::write_payload(*t.h, sink);
  }
  sink.align64();
}

/// Inverse of put_tile over a skeleton tile.
template <typename T>
void read_tile(tile::Tile<T>& t, MapCursor& cur) {
  if (t.format == tile::TileFormat::Full) {
    if (cur.u32() != hmat::kPayloadFull)
      throw Error("factor store: dense tile payload expected");
    t.full.reset(t.m, t.n);
    cur.scalars(t.full.data(), t.m * t.n);
  } else {
    hmat::read_payload(*t.h, cur);
  }
}

struct TileExtent {
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t hash = 0;
};
static_assert(sizeof(TileExtent) == kTileEntryBytes);

}  // namespace detail

template <typename T>
struct LoadedFactors {
  core::TileHMatrix<T> matrix;
  FactorKind kind;
};

/// Serialize factorized (or assembled) tiles to `path`, atomically
/// (tmp + rename): readers never observe a half-written store. A sizing
/// walk fixes every record's extent first, so the file buffer is allocated
/// once, and each tile's hash is taken right after the tile is written.
template <typename T>
void save_factors(const core::TileHMatrix<T>& m, FactorKind kind,
                  const std::string& path) {
  const core::TileHOptions& opts = m.options();
  const index_t nt = m.num_tiles();
  const std::size_t n_tiles = static_cast<std::size_t>(nt * nt);
  // Sizing walk.
  detail::VecSink counter;
  detail::put_tree(m, counter);
  const std::size_t table_at = detail::kHeaderBytes + counter.size();
  const std::size_t meta_end =
      detail::align64(table_at + detail::kTileEntryBytes * n_tiles);
  std::vector<std::uint64_t> tile_bytes(n_tiles);
  std::size_t total = meta_end;
  for (index_t i = 0; i < nt; ++i) {
    for (index_t j = 0; j < nt; ++j) {
      detail::VecSink c;
      detail::put_tile(m.desc().tile(i, j), c);
      tile_bytes[static_cast<std::size_t>(i * nt + j)] = c.size();
      total += c.size();
    }
  }
  std::vector<unsigned char> buf;
  buf.reserve(total);
  detail::VecSink sink(buf);
  // Header.
  sink.put_u32(detail::kMagic);
  sink.put_u32(detail::kVersion);
  sink.put_u32(detail::kEndianness);
  sink.put_u32(detail::scalar_tag<T>());
  sink.put_u32(static_cast<std::uint32_t>(kind));
  sink.put_u32(0);  // reserved
  sink.put_u64(m.structure_signature());
  sink.put_u64(m.tree().structure_signature());
  sink.put_u64(meta_end - detail::kHeaderBytes);
  sink.put_u64(0);  // metadata hash, patched below
  sink.put_i64(m.size());
  sink.put_i64(m.tile_size());
  sink.put_i64(nt);
  sink.put_i64(static_cast<index_t>(opts.format));
  sink.put_i64(opts.clustering.leaf_size);
  sink.put_i64(static_cast<index_t>(opts.clustering.strategy));
  sink.put_i64(static_cast<index_t>(opts.hmatrix.admissibility.kind));
  sink.put_f64(opts.hmatrix.admissibility.eta);
  sink.put_i64(opts.hmatrix.admissibility.use_min_diameter ? 1 : 0);
  sink.put_f64(opts.hmatrix.compression.eps);
  sink.put_i64(opts.hmatrix.compression.max_rank);
  sink.put_i64(static_cast<index_t>(opts.hmatrix.compression.method));
  sink.put_i64(opts.hmatrix.compression.recompress ? 1 : 0);
  HCHAM_CHECK(sink.size() == detail::kHeaderBytes);
  // Metadata: tree, then the tile table (hashes patched per tile below).
  detail::put_tree(m, sink);
  HCHAM_CHECK(sink.size() == table_at);
  std::size_t at = meta_end;
  for (const std::uint64_t bytes : tile_bytes) {
    sink.put_u64(at);
    sink.put_u64(bytes);
    sink.put_u64(0);
    at += bytes;
  }
  sink.align64();
  HCHAM_CHECK(sink.size() == meta_end);
  // Tile records.
  for (index_t i = 0; i < nt; ++i) {
    for (index_t j = 0; j < nt; ++j) {
      const std::size_t k = static_cast<std::size_t>(i * nt + j);
      const std::size_t start = sink.size();
      detail::put_tile(m.desc().tile(i, j), sink);
      HCHAM_CHECK(sink.size() - start == tile_bytes[k]);
      sink.patch_u64(table_at + detail::kTileEntryBytes * k + 16,  // hash
                     hash_bytes(buf.data() + start, tile_bytes[k]));
    }
  }
  HCHAM_CHECK(sink.size() == total);
  sink.patch_u64(detail::kMetaHashOffset,
                 hash_bytes(buf.data() + detail::kHeaderBytes,
                            meta_end - detail::kHeaderBytes));
  detail::write_file_atomic(path, buf);
  lifecycle_counters().bump(lifecycle_counters().factor_saves);
}

/// Reconstruct a factorized TileHMatrix from `path` via mmap, restoring
/// the tiles as one task each on `engine`. Throws hcham::Error on any
/// validation failure; on success the returned matrix is interchangeable
/// with the one that was saved (bit-identical payloads, equal
/// structure_signature, so cached task graphs replay on it).
template <typename T>
LoadedFactors<T> load_factors(rt::Engine& engine, const std::string& path) {
  detail::MappedFile map(path);
  detail::MapCursor cur(map.data(), map.size());
  if (cur.u32() != detail::kMagic)
    throw Error("factor store: not a factor file: " + path);
  if (cur.u32() != detail::kVersion)
    throw Error("factor store: unsupported format version in " + path);
  if (cur.u32() != detail::kEndianness)
    throw Error("factor store: endianness mismatch in " + path);
  if (cur.u32() != detail::scalar_tag<T>())
    throw Error("factor store: scalar type mismatch in " + path);
  const std::uint32_t kind_raw = cur.u32();
  if (kind_raw > static_cast<std::uint32_t>(FactorKind::Cholesky))
    throw Error("factor store: unknown factor kind in " + path);
  cur.u32();  // reserved
  const std::uint64_t structure_sig = cur.u64();
  const std::uint64_t tree_sig = cur.u64();
  const std::uint64_t meta_bytes = cur.u64();
  const std::uint64_t meta_hash = cur.u64();
  const index_t n = cur.i64();
  const index_t tile_size = cur.i64();
  const index_t num_tiles = cur.i64();
  core::TileHOptions opts;
  const index_t format = cur.i64();
  opts.clustering.leaf_size = cur.i64();
  const index_t strategy = cur.i64();
  const index_t adm_kind = cur.i64();
  opts.hmatrix.admissibility.eta = cur.f64();
  opts.hmatrix.admissibility.use_min_diameter = cur.i64() != 0;
  opts.hmatrix.compression.eps = cur.f64();
  opts.hmatrix.compression.max_rank = cur.i64();
  const index_t method = cur.i64();
  opts.hmatrix.compression.recompress = cur.i64() != 0;
  // n / tile_size + (remainder != 0) is ceil_div without its overflow on
  // hostile sizes.
  if (n < 0 || tile_size < 1 ||
      num_tiles != n / tile_size + (n % tile_size != 0 ? 1 : 0) ||
      format < 0 || format > 2 || strategy < 0 || strategy > 1 ||
      adm_kind < 0 || adm_kind > 2 || method < 0 || method > 2 ||
      opts.clustering.leaf_size < 1)
    throw Error("factor store: corrupt header in " + path);
  opts.tile_size = tile_size;
  opts.format = static_cast<core::TileRepresentation>(format);
  opts.clustering.strategy = static_cast<cluster::Bisection>(strategy);
  opts.hmatrix.admissibility.kind =
      static_cast<cluster::AdmissibilityCondition::Kind>(adm_kind);
  opts.hmatrix.compression.method =
      static_cast<rk::CompressionMethod>(method);
  // Metadata block: verify its hash before parsing a byte of it.
  if (meta_bytes > map.size() - detail::kHeaderBytes)
    throw Error("factor store: truncated file");
  const auto meta_size = static_cast<std::size_t>(meta_bytes);
  const std::size_t meta_end = detail::kHeaderBytes + meta_size;
  if (meta_end != detail::align64(meta_end))
    throw Error("factor store: corrupt header in " + path);
  const unsigned char* meta_at = map.data() + detail::kHeaderBytes;
  if (hash_bytes(meta_at, meta_size) != meta_hash)
    throw Error("factor store: corrupt tree block or tile table "
                "(checksum mismatch) in " + path);
  detail::MapCursor meta(meta_at, meta_size);
  // Cluster tree block. Every element count from the file is bounded by
  // the bytes left in the block BEFORE it sizes an allocation, so a
  // hostile file (one with a recomputed valid hash) fails with a clean
  // Error instead of bad_alloc / OOM.
  const index_t n_points = meta.i64();
  if (n_points != n ||
      static_cast<std::uint64_t>(n_points) >
          meta.remaining() / (3 * sizeof(double)))
    throw Error("factor store: corrupt tree block in " + path);
  std::vector<cluster::Point3> points(static_cast<std::size_t>(n_points));
  for (cluster::Point3& p : points) {
    p.x = meta.f64();
    p.y = meta.f64();
    p.z = meta.f64();
  }
  const index_t n_perm = meta.i64();
  if (n_perm != n ||
      static_cast<std::uint64_t>(n_perm) >
          meta.remaining() / sizeof(std::int64_t))
    throw Error("factor store: corrupt tree block in " + path);
  std::vector<index_t> perm(static_cast<std::size_t>(n_perm));
  for (index_t& p : perm) p = meta.i64();
  const index_t n_nodes = meta.i64();
  if (n_nodes < 0 ||
      static_cast<std::uint64_t>(n_nodes) >
          meta.remaining() / (4 * sizeof(std::int64_t)))
    throw Error("factor store: corrupt tree block in " + path);
  std::vector<cluster::ClusterTree::Node> nodes(
      static_cast<std::size_t>(n_nodes));
  for (cluster::ClusterTree::Node& nd : nodes) {
    nd.offset = meta.i64();
    nd.size = meta.i64();
    nd.child[0] = meta.i64();
    nd.child[1] = meta.i64();
  }
  const index_t n_roots = meta.i64();
  if (n_roots != num_tiles ||
      static_cast<std::uint64_t>(n_roots) >
          meta.remaining() / sizeof(std::int64_t))
    throw Error("factor store: corrupt tree block in " + path);
  std::vector<index_t> roots(static_cast<std::size_t>(n_roots));
  for (index_t& r : roots) r = meta.i64();
  // from_parts enforces the structural invariants; re-wrap its Error with
  // the path for context.
  cluster::TileClustering tc;
  try {
    tc.tree = cluster::ClusterTree::from_parts(std::move(points),
                                               std::move(perm),
                                               std::move(nodes));
  } catch (const Error& e) {
    throw Error(std::string(e.what()) + " in " + path);
  }
  if (tc.tree.structure_signature() != tree_sig)
    throw Error("factor store: cluster tree signature mismatch in " + path);
  for (index_t i = 0; i < n_roots; ++i) {
    const index_t r = roots[static_cast<std::size_t>(i)];
    if (r < 0 || r >= tc.tree.num_nodes() ||
        tc.tree.node(r).offset != i * tile_size)
      throw Error("factor store: corrupt tile roots in " + path);
  }
  tc.tile_roots = std::move(roots);
  tc.tile_size = tile_size;
  // Tile table: every extent is validated before any tile is allocated.
  const auto nt = static_cast<std::size_t>(num_tiles);
  if (nt != 0 && nt > meta.remaining() / detail::kTileEntryBytes / nt)
    throw Error("factor store: corrupt tile table in " + path);
  const std::size_t n_tiles = nt * nt;
  if (meta.remaining() - n_tiles * detail::kTileEntryBytes >= 64)
    throw Error("factor store: corrupt tile table in " + path);
  std::vector<detail::TileExtent> table(n_tiles);
  std::uint64_t expect = meta_end;
  for (detail::TileExtent& e : table) {
    e.offset = meta.u64();
    e.bytes = meta.u64();
    e.hash = meta.u64();
    if (e.offset != detail::align64(e.offset) ||
        e.bytes != detail::align64(e.bytes) || e.bytes == 0)
      throw Error("factor store: misaligned tile record in " + path);
    if (e.offset != expect)
      throw Error("factor store: tile records overlap or leave a gap in " +
                  path);
    if (e.bytes > map.size() - e.offset)
      throw Error("factor store: truncated file: tile record past the end "
                  "of " +
                  path);
    expect = e.offset + e.bytes;
  }
  if (expect != map.size())
    throw Error("factor store: trailing bytes after the last tile in " +
                path);
  // The reconstructed skeleton must hash to the recorded signature before
  // any payload is trusted; this pins every option the task graphs and the
  // tile shapes depend on.
  core::TileHMatrix<T> m =
      core::TileHMatrix<T>::skeleton(engine, std::move(tc), opts);
  if (m.structure_signature() != structure_sig)
    throw Error("factor store: structure signature mismatch in " + path);
  // One verify-then-fill task per tile, like the assembly tasks of
  // TileHMatrix::build: each tile's pages are first touched by the worker
  // that fills it.
  for (index_t i = 0; i < num_tiles; ++i) {
    for (index_t j = 0; j < num_tiles; ++j) {
      const detail::TileExtent e =
          table[static_cast<std::size_t>(i * num_tiles + j)];
      const unsigned char* rec = map.data() + e.offset;
      tile::Tile<T>* t = &m.desc().tile(i, j);
      engine.submit(
          [t, rec, e, i, j, &path] {
            const auto fail = [&](const std::string& what) {
              throw Error(what + " in tile (" + std::to_string(i) + ", " +
                          std::to_string(j) + ") of " + path);
            };
            if (hash_bytes(rec, e.bytes) != e.hash)
              fail("factor store: payload checksum mismatch");
            detail::MapCursor in(rec, e.bytes);
            try {
              detail::read_tile(*t, in);
            } catch (const Error& ex) {
              fail(ex.what());
            }
            in.align64();
            if (in.pos() != e.bytes) fail("factor store: trailing bytes");
          },
          {rt::write(m.desc().handle(i, j))}, 0, "restore");
    }
  }
  engine.wait_all();
  lifecycle_counters().bump(lifecycle_counters().factor_loads);
  return LoadedFactors<T>{std::move(m), static_cast<FactorKind>(kind_raw)};
}

}  // namespace hcham::lifecycle
