// Columnar (struct-of-arrays) batch storage: the native currency of the
// batch-execution path.
//
// The Banzai machine is op-major in hardware — every stage's atoms fire on a
// vector of packets per clock — and the kernel VM already executes op-major
// over batches.  But row-major batches (one Value vector per Packet) make
// that op-major walk stride across heap-scattered rows, so neither the VM
// loops (banzai/kernel.cc) nor the AOT-emitted code (core/emit.cc) can be
// auto-vectorized by the host compiler.  ColumnBatch transposes the batch
// once: one dense Value column per FieldId, so "run op k over the batch"
// becomes a contiguous column loop the vectorizer handles like any other
// array kernel.
//
// Layout: one flat allocation, column-major.  Column f occupies
// data_[f * stride_, f * stride_ + size_); stride_ is the capacity the batch
// was last reshaped to, so growing and shrinking n within a capacity never
// reallocates or re-derives column pointers.  col_ptrs_ caches one raw
// pointer per field in FieldId order — exactly the `Value* const* cols`
// array the native columnar entry point takes (banzai/native.h).
//
// Converters: gather() transposes row-major Packets in, scatter() transposes
// back out into the same (or equally wide) packets.  Packets wider than the
// batch (extra trailing fields) keep those fields untouched across a
// round-trip, matching the in-place row engines which only address fields
// below the program width.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "banzai/packet.h"
#include "banzai/value.h"

namespace banzai {

class ColumnBatch {
 public:
  ColumnBatch() = default;
  ColumnBatch(std::size_t num_fields, std::size_t n) { reshape(num_fields, n); }

  // Sets the batch to n packets of num_fields columns each, reusing the
  // existing allocation when it is large enough.  Contents are unspecified
  // until written (gather, or per-column stores).
  void reshape(std::size_t num_fields, std::size_t n) {
    if (num_fields != num_fields_ || n > stride_) {
      stride_ = std::max(n, stride_);
      num_fields_ = num_fields;
      data_.resize(num_fields_ * stride_);
      col_ptrs_.resize(num_fields_);
      for (std::size_t f = 0; f < num_fields_; ++f)
        col_ptrs_[f] = data_.data() + f * stride_;
    }
    size_ = n;
  }

  // Transposes pkts[0..n) in.  Every packet must carry at least num_fields
  // fields; wider packets contribute their first num_fields columns.
  void gather(const Packet* pkts, std::size_t n, std::size_t num_fields) {
    for (std::size_t i = 0; i < n; ++i)
      if (pkts[i].num_fields() < num_fields)
        throw std::invalid_argument(
            "ColumnBatch::gather: packet narrower than the batch's field "
            "count");
    reshape(num_fields, n);
    for (std::size_t i = 0; i < n; ++i) {
      const Value* row = pkts[i].data();
      for (std::size_t f = 0; f < num_fields_; ++f)
        col_ptrs_[f][i] = row[f];
    }
  }

  // Transposes back out into pkts[0..size()); fields beyond num_fields() are
  // left untouched.  Packets must be at least num_fields() wide.
  void scatter(Packet* pkts) const {
    for (std::size_t i = 0; i < size_; ++i)
      if (pkts[i].num_fields() < num_fields_)
        throw std::invalid_argument(
            "ColumnBatch::scatter: packet narrower than the batch's field "
            "count");
    for (std::size_t i = 0; i < size_; ++i) {
      Value* row = pkts[i].data();
      for (std::size_t f = 0; f < num_fields_; ++f)
        row[f] = col_ptrs_[f][i];
    }
  }

  // Subset transpose, driven by the compiled program's liveness sets
  // (CompiledPipeline::live_in_fields / written_fields): reshapes to the full
  // num_fields width but copies only the listed columns in, leaving the rest
  // unspecified.  Legal whenever every untransposed column is written before
  // it is read — which the kernel ISA guarantees for every field outside the
  // live-in set, since all its writes are unconditional.  Cuts the transpose
  // cost from 2*n*num_fields to n*(live_in + written) copies, which is what
  // lets the columnar shape beat rows end to end.
  void gather_fields(const Packet* pkts, std::size_t n, std::size_t num_fields,
                     const std::uint32_t* fields, std::size_t nf) {
    for (std::size_t i = 0; i < n; ++i)
      if (pkts[i].num_fields() < num_fields)
        throw std::invalid_argument(
            "ColumnBatch::gather_fields: packet narrower than the batch's "
            "field count");
    reshape(num_fields, n);
    for (std::size_t i = 0; i < n; ++i) {
      const Value* row = pkts[i].data();
      for (std::size_t k = 0; k < nf; ++k)
        col_ptrs_[fields[k]][i] = row[fields[k]];
    }
  }

  // Transposes only the listed columns back out; every other field keeps the
  // value it had in the packet.  The field list must not contain columns the
  // program left unwritten and ungathered (their contents are unspecified).
  void scatter_fields(Packet* pkts, const std::uint32_t* fields,
                      std::size_t nf) const {
    for (std::size_t i = 0; i < size_; ++i)
      if (pkts[i].num_fields() < num_fields_)
        throw std::invalid_argument(
            "ColumnBatch::scatter_fields: packet narrower than the batch's "
            "field count");
    for (std::size_t i = 0; i < size_; ++i) {
      Value* row = pkts[i].data();
      for (std::size_t k = 0; k < nf; ++k)
        row[fields[k]] = col_ptrs_[fields[k]][i];
    }
  }

  Value* col(FieldId f) { return col_ptrs_[f]; }
  const Value* col(FieldId f) const { return col_ptrs_[f]; }
  // One pointer per field in FieldId order — the native columnar ABI.
  Value* const* col_ptrs() const { return col_ptrs_.data(); }

  Value& at(std::size_t i, FieldId f) { return col_ptrs_[f][i]; }
  Value at(std::size_t i, FieldId f) const { return col_ptrs_[f][i]; }

  std::size_t size() const { return size_; }
  std::size_t num_fields() const { return num_fields_; }
  std::size_t capacity() const { return stride_; }

  // Releases the backing allocation (the batch becomes empty, zero fields).
  void release() {
    std::vector<Value>().swap(data_);
    std::vector<Value*>().swap(col_ptrs_);
    num_fields_ = stride_ = size_ = 0;
  }

 private:
  std::vector<Value> data_;      // column-major, one stride_-sized lane per field
  std::vector<Value*> col_ptrs_; // col_ptrs_[f] = &data_[f * stride_]
  std::size_t num_fields_ = 0;
  std::size_t stride_ = 0;       // capacity in packets
  std::size_t size_ = 0;         // live packets
};

// The typed batch currency of Machine::run_batch: a borrowed view of either
// row-major packets (processed in place) or a column-major ColumnBatch.
// Replaces the old bool-returning Machine::run_compiled_batch success
// protocol — both engines execute behind the one entry point, and the
// caller picks the storage shape, not the engine.
class BatchView {
 public:
  static BatchView rows(Packet* pkts, std::size_t n) {
    BatchView v;
    v.pkts_ = pkts;
    v.n_ = n;
    return v;
  }
  static BatchView columns(ColumnBatch& cols) {
    BatchView v;
    v.cols_ = &cols;
    v.n_ = cols.size();
    return v;
  }

  bool columnar() const { return cols_ != nullptr; }
  std::size_t size() const { return n_; }
  Packet* row_data() const { return pkts_; }
  ColumnBatch& cols() const { return *cols_; }

 private:
  BatchView() = default;
  Packet* pkts_ = nullptr;
  ColumnBatch* cols_ = nullptr;
  std::size_t n_ = 0;
};

}  // namespace banzai
