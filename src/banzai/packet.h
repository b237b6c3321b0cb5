// Packets as seen by the Banzai machine: a flat vector of named integer
// fields.  The set of fields (headers plus compiler-introduced temporaries)
// is fixed per program and described by a FieldTable; individual packets are
// then cheap value types indexed by FieldId.
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "banzai/value.h"

namespace banzai {

using FieldId = std::size_t;

// Maps field names to dense indices.  Built once per compiled program.
class FieldTable {
 public:
  // Returns the id of `name`, interning it if new.
  FieldId intern(std::string_view name) {
    auto it = index_.find(std::string(name));
    if (it != index_.end()) return it->second;
    FieldId id = names_.size();
    names_.emplace_back(name);
    index_.emplace(names_.back(), id);
    return id;
  }

  // Returns the id of `name`; throws if the field was never interned.
  FieldId id_of(std::string_view name) const {
    auto it = index_.find(std::string(name));
    if (it == index_.end())
      throw std::out_of_range("unknown packet field: " + std::string(name));
    return it->second;
  }

  std::optional<FieldId> try_id_of(std::string_view name) const {
    auto it = index_.find(std::string(name));
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }

  const std::string& name_of(FieldId id) const { return names_.at(id); }
  std::size_t size() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, FieldId> index_;
};

// One packet: a value for every field in the program's FieldTable.
// Fields start at zero, matching uninitialized metadata in real pipelines.
class Packet {
 public:
  Packet() = default;
  explicit Packet(std::size_t num_fields) : fields_(num_fields, 0) {}

  Value get(FieldId id) const { return fields_.at(id); }
  void set(FieldId id, Value v) { fields_.at(id) = v; }

  Value& operator[](FieldId id) { return fields_[id]; }
  Value operator[](FieldId id) const { return fields_[id]; }

  // Raw field storage, for the native engine's packet-pointer batches.
  Value* data() { return fields_.data(); }
  const Value* data() const { return fields_.data(); }

  std::size_t num_fields() const { return fields_.size(); }

  // Zeroes the packet to num_fields fields — a fresh Packet(num_fields) —
  // reusing its storage when that is already large enough.
  void reset(std::size_t num_fields) { fields_.assign(num_fields, 0); }

  bool operator==(const Packet& o) const { return fields_ == o.fields_; }
  bool operator!=(const Packet& o) const { return !(*this == o); }

 private:
  std::vector<Value> fields_;
};

}  // namespace banzai
