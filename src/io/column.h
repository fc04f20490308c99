// io::Column<T>: an own-or-borrow POD column for the SoA data layer.
//
// The columnar tables (trace::EventTable, core::TaskMetaTable) were built
// on std::vector columns, which forces every load path to copy bytes into
// owned storage. Snapshot loading (snapshot/snapshot.h) wants the opposite:
// a column that *views* the bytes of an mmap'ed file, with no copy at all.
// Column<T> supports both states behind one interface:
//
//   - owned: a std::vector<T>, exactly as before. All mutating builders
//     (push_back, resize, assign, non-const operator[]) operate here.
//   - borrowed: a {pointer, size} view plus a shared_ptr keepalive that
//     pins whatever owns the bytes (the snapshot's io::MappedFile). The
//     aliasing keepalive is the lifetime rule of the snapshot layer: a
//     table column can outlive the loader because every borrowed column
//     holds a reference to the mapping.
//
// Mutation of a borrowed column detaches first (copies the view into owned
// storage, copy-on-write), so existing build code works unchanged no matter
// where a table came from. Copies of a borrowed column share the borrow
// (two pointers); copies of an owned column deep-copy, preserving vector
// semantics. Thread safety matches the tables: frozen columns are safe to
// read concurrently; mutation is single-threaded build-phase only.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace lumos::io {

template <class T>
class Column {
  static_assert(std::is_trivially_copyable_v<T>,
                "Column is for POD column data only");

 public:
  using value_type = T;

  Column() = default;
  Column(std::vector<T> values) : own_(std::move(values)) {}
  Column(const Column&) = default;
  Column& operator=(const Column&) = default;
  /// A moved-from column is empty, whether it owned or borrowed.
  Column(Column&& other) noexcept { *this = std::move(other); }
  Column& operator=(Column&& other) noexcept {
    own_ = std::exchange(other.own_, {});
    view_ = std::exchange(other.view_, {});
    keepalive_ = std::move(other.keepalive_);
    return *this;
  }

  /// A column viewing `size` elements at `data`, kept alive by `keepalive`
  /// (aliased to the mapping / buffer that owns the bytes).
  static Column borrow(const T* data, std::size_t size,
                       std::shared_ptr<const void> keepalive) {
    Column c;
    c.view_ = {data, size};
    c.keepalive_ = std::move(keepalive);
    return c;
  }

  bool borrowed() const { return view_.data() != nullptr; }

  std::size_t size() const { return borrowed() ? view_.size() : own_.size(); }
  bool empty() const { return size() == 0; }
  const T* data() const { return borrowed() ? view_.data() : own_.data(); }
  const T& operator[](std::size_t i) const { return data()[i]; }
  const T& front() const { return data()[0]; }
  const T& back() const { return data()[size() - 1]; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size(); }
  std::span<const T> span() const { return {data(), size()}; }

  /// Implicit view so columns drop in where std::span was already exposed.
  operator std::span<const T>() const { return span(); }

  // -- mutation (detaches a borrowed column first: copy-on-write) -----------
  T& operator[](std::size_t i) {
    detach();
    return own_[i];
  }
  T* begin() {
    detach();
    return own_.data();
  }
  T* end() {
    detach();
    return own_.data() + own_.size();
  }
  void push_back(const T& value) {
    detach();
    own_.push_back(value);
  }
  void reserve(std::size_t n) {
    detach();
    own_.reserve(n);
  }
  void resize(std::size_t n) {
    detach();
    own_.resize(n);
  }
  void assign(std::size_t n, const T& value) {
    release();
    own_.assign(n, value);
  }
  void clear() {
    release();
    own_.clear();
  }
  Column& operator=(std::vector<T>&& values) {
    release();
    own_ = std::move(values);
    return *this;
  }

 private:
  /// Copies a borrowed view into owned storage (no-op when already owned).
  void detach() {
    if (!borrowed()) return;
    own_.assign(view_.begin(), view_.end());
    release();
  }
  void release() {
    view_ = {};
    keepalive_.reset();
  }

  // Invariant: borrowed() (view_ non-null) means view_/keepalive_ are the
  // truth and own_ is empty; otherwise own_ is the truth. Copy and move
  // preserve it: copying a borrowed column copies the view + keepalive
  // (shares the borrow), copying an owned column deep-copies the vector.
  std::vector<T> own_;
  std::span<const T> view_;
  std::shared_ptr<const void> keepalive_;
};

}  // namespace lumos::io
