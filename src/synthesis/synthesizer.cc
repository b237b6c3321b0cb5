#include "synthesis/synthesizer.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <random>
#include <set>
#include <sstream>

#include "sim/partition.h"

namespace synthesis {

using atoms::ArmConfig;
using atoms::ArmMode;
using atoms::LiveOutBinding;
using atoms::OperandSel;
using atoms::PredConfig;
using atoms::RelKind;
using atoms::StatefulConfig;
using atoms::StatefulTemplateInfo;

namespace {

struct Vec {
  std::vector<Value> states;
  std::vector<Value> fields;
};

struct SpecOut {
  std::vector<Value> states;
  std::vector<Value> liveouts;
};

// A set of test vectors is a bitset over the search's vector list: bit v % 64
// of word v / 64 stands for vector v.  All sets of one CEGIS iteration have
// the same number of words, and bits at or past the vector count are zero.
using Word = std::uint64_t;

// True if every vector of S is in `row` (S & ~row is empty).
bool covers(const Word* row, const Word* S, std::size_t words) {
  for (std::size_t w = 0; w < words; ++w)
    if (S[w] & ~row[w]) return false;
  return true;
}

// Splits S by a predicate's truth bitset into its true and false parts.
void split(const Word* S, const Word* truth, Word* t, Word* f,
           std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) {
    t[w] = S[w] & truth[w];
    f[w] = S[w] & ~truth[w];
  }
}

// Bit v of `out` is rel(a[v], b[v]) for v < n; later bits are zero.
template <class Rel>
void truth_bits(const Value* a, const Value* b, std::size_t n, Word* out,
                Rel rel) {
  for (std::size_t w = 0; w * 64 < n; ++w) {
    const std::size_t end = std::min(n, w * 64 + 64);
    Word word = 0;
    for (std::size_t v = w * 64; v < end; ++v)
      word |= static_cast<Word>(rel(a[v], b[v])) << (v % 64);
    out[w] = word;
  }
}

void truth_bits(RelKind rel, const Value* a, const Value* b, std::size_t n,
                Word* out) {
  switch (rel) {
    case RelKind::kLt: return truth_bits(a, b, n, out, std::less<Value>());
    case RelKind::kLe:
      return truth_bits(a, b, n, out, std::less_equal<Value>());
    case RelKind::kGt: return truth_bits(a, b, n, out, std::greater<Value>());
    case RelKind::kGe:
      return truth_bits(a, b, n, out, std::greater_equal<Value>());
    case RelKind::kEq: return truth_bits(a, b, n, out, std::equal_to<Value>());
    case RelKind::kNe:
      return truth_bits(a, b, n, out, std::not_equal_to<Value>());
    case RelKind::kAlways: break;
  }
}

// An open-addressing hash set of equal-width bitsets.  Keys are stored back
// to back in insertion order, so an entry's id is its insertion index.
class BitsetSet {
 public:
  // Empties the set and sets the key width; keeps the slot table's size.
  void reset(std::size_t words) {
    words_ = words;
    keys_.clear();
    slots_.assign(std::max<std::size_t>(slots_.size(), 64), kEmpty);
  }

  std::size_t size() const { return keys_.size() / words_; }
  const Word* key(std::size_t id) const { return &keys_[id * words_]; }

  // Inserts a copy of `key` unless an equal key is present.  Returns the
  // entry's id and whether it was inserted.
  std::pair<std::size_t, bool> insert(const Word* key) {
    if (2 * (size() + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == kEmpty) {
        slots_[i] = static_cast<std::uint32_t>(size());
        keys_.insert(keys_.end(), key, key + words_);
        return {slots_[i], true};
      }
      if (std::equal(key, key + words_, this->key(slots_[i])))
        return {slots_[i], false};
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;

  std::size_t hash(const Word* key) const {
    Word h = 0;
    for (std::size_t w = 0; w < words_; ++w) h = netsim::mix64(h ^ key[w]);
    return static_cast<std::size_t>(h);
  }

  void grow() {
    slots_.assign(slots_.size() * 2, kEmpty);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t id = 0; id < size(); ++id) {
      std::size_t i = hash(key(id)) & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = static_cast<std::uint32_t>(id);
    }
  }

  std::size_t words_ = 1;
  std::vector<Word> keys_;
  std::vector<std::uint32_t> slots_;
};

class Search {
 public:
  Search(const CodeletSpec& spec, const StatefulTemplateInfo& tmpl,
         const SynthOptions& opts)
      : spec_(spec), tmpl_(tmpl), opts_(opts) {}

  SynthResult run() {
    const auto t0 = std::chrono::steady_clock::now();
    SynthResult result;
    result.input_fields = spec_.input_fields();

    const bool has_lut =
        std::find(tmpl_.allowed_modes.begin(), tmpl_.allowed_modes.end(),
                  ArmMode::kLutAdd) != tmpl_.allowed_modes.end();
    std::string reason;
    if (spec_.num_states() == 0) {
      result.failure_reason = "codelet touches no state variable";
    } else if (spec_.num_states() >
               static_cast<std::size_t>(tmpl_.num_states)) {
      result.failure_reason =
          "codelet updates " + std::to_string(spec_.num_states()) +
          " state variables but the " + tmpl_.name + " atom owns only " +
          std::to_string(tmpl_.num_states);
    } else if (spec_.has_unmappable_op(&reason, has_lut)) {
      result.failure_reason = reason;
    }
    if (!result.failure_reason.empty()) {
      finish(result, t0);
      return result;
    }

    build_constant_pools();
    build_arm_candidates();
    build_initial_vectors();
    check_.states.assign(spec_.num_states(), 0);
    check_.liveouts.assign(spec_.liveout_fields().size(), 0);
    got_.assign(spec_.num_states(), 0);

    for (int iter = 0; iter < opts_.max_cegis_iters; ++iter) {
      stats_.cegis_iterations = iter + 1;
      evaluate_spec();

      std::vector<LiveOutBinding> bindings;
      if (!bind_liveouts(&bindings)) {
        result.failure_reason =
            "live-out field '" + unbindable_liveout_ +
            "' is neither the old nor the new value of a state variable";
        finish(result, t0);
        return result;
      }

      std::optional<StatefulConfig> config = search_tree();
      if (!config.has_value()) {
        result.failure_reason = "no hole assignment of the " + tmpl_.name +
                                " template matches the codelet";
        finish(result, t0);
        return result;
      }

      Vec counterexample;
      if (verify(*config, bindings, &counterexample)) {
        result.success = true;
        result.config = *config;
        result.liveouts = bindings;
        finish(result, t0);
        return result;
      }
      vectors_.push_back(std::move(counterexample));
    }
    result.failure_reason = "CEGIS iteration limit exceeded";
    finish(result, t0);
    return result;
  }

 private:
  void finish(SynthResult& result, std::chrono::steady_clock::time_point t0) {
    stats_.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    result.stats = stats_;
  }

  void build_constant_pools() {
    std::set<Value> pool;
    if (opts_.seed_constants) {
      for (Value v : {-2, -1, 0, 1, 2}) pool.insert(v);
      for (Value c : spec_.constants()) {
        pool.insert(c);
        pool.insert(banzai::wrap_add(c, 1));
        pool.insert(banzai::wrap_sub(c, 1));
      }
    } else {
      const Value lo = -(Value{1} << (opts_.const_bits - 1));
      const Value hi = (Value{1} << (opts_.const_bits - 1)) - 1;
      for (Value v = lo; v <= hi; ++v) pool.insert(v);
      // Constants appearing in the codelet stay available even if they do
      // not fit const_bits, so that wider programs are still mappable —
      // the sweep measures cost, not artificial failures.
      for (Value c : spec_.constants()) pool.insert(c);
    }
    const_pool_.assign(pool.begin(), pool.end());
  }

  void build_initial_vectors() {
    const std::size_t n = spec_.num_states() + spec_.num_inputs();
    std::set<Value> base = {0,  1,  -1, 2,  -2,  3,   5,
                            -16, 15, 30, 99, -100, 1000};
    for (Value c : spec_.constants()) {
      base.insert(c);
      base.insert(banzai::wrap_add(c, 1));
      base.insert(banzai::wrap_sub(c, 1));
    }
    std::vector<Value> b(base.begin(), base.end());

    auto make_vec = [this](auto&& fill) {
      Vec v;
      v.states.assign(spec_.num_states(), 0);
      v.fields.assign(spec_.num_inputs(), 0);
      fill(v);
      return v;
    };

    vectors_.push_back(make_vec([](Vec&) {}));  // all zero
    for (std::size_t i = 0; i < n; ++i) {
      for (Value val : b) {
        vectors_.push_back(make_vec([&](Vec& v) { slot(v, i) = val; }));
      }
    }
    // Seeded small random vectors to break symmetric coincidences early.
    std::mt19937 rng(opts_.seed);
    std::uniform_int_distribution<Value> small(-8, 31);
    std::uniform_int_distribution<Value> wide(INT32_MIN, INT32_MAX);
    for (int k = 0; k < 30; ++k)
      vectors_.push_back(make_vec([&](Vec& v) {
        for (std::size_t i = 0; i < n; ++i) slot(v, i) = small(rng);
      }));
    for (int k = 0; k < 10; ++k)
      vectors_.push_back(make_vec([&](Vec& v) {
        for (std::size_t i = 0; i < n; ++i) slot(v, i) = wide(rng);
      }));
  }

  Value& slot(Vec& v, std::size_t i) {
    return i < v.states.size() ? v.states[i] : v.fields[i - v.states.size()];
  }

  // Brings outs_, keeps_, all_ and every built fit row up to date with
  // vectors_, which only grows, and clears the arm memo.
  void evaluate_spec() {
    const std::size_t nv = vectors_.size();
    const std::size_t words = (nv + 63) / 64;
    if (words != words_) widen(words);
    for (std::size_t vi = outs_.size(); vi < nv; ++vi) {
      const Vec& v = vectors_[vi];
      SpecOut o;
      o.states.assign(spec_.num_states(), 0);
      o.liveouts.assign(spec_.liveout_fields().size(), 0);
      spec_.eval(v.states, v.fields, o.states, o.liveouts, spec_scratch_);
      const Word bit = Word{1} << (vi % 64);
      if (o.states == v.states) keeps_[vi / 64] |= bit;
      outs_.push_back(std::move(o));
      for (std::size_t k = 0; k < rows_.size(); ++k) {
        const std::size_t built = num_rows(k);
        for (std::size_t c = 0; c < built; ++c)
          if (arm_matches(arm_cands_[c], k, vi))
            rows_[k][c * words_ + vi / 64] |= bit;
      }
    }
    all_.assign(words_, ~Word{0});
    if (nv % 64) all_.back() = (Word{1} << (nv % 64)) - 1;
    for (auto& m : arm_memo_) m.reset(words_);
    for (auto& f : arm_found_) f.clear();
  }

  // Re-lays every bitset that outlives an iteration at `words` words.
  void widen(std::size_t words) {
    for (std::size_t k = 0; k < rows_.size(); ++k) {
      std::vector<Word> wide(num_rows(k) * words, 0);
      for (std::size_t c = 0; c < num_rows(k); ++c)
        std::copy_n(&rows_[k][c * words_], words_, &wide[c * words]);
      rows_[k] = std::move(wide);
    }
    keeps_.resize(words, 0);
    words_ = words;
  }

  bool bind_liveouts(std::vector<LiveOutBinding>* bindings) {
    bindings->clear();
    for (std::size_t i = 0; i < spec_.liveout_fields().size(); ++i) {
      bool bound = false;
      for (std::size_t k = 0; k < spec_.num_states() && !bound; ++k) {
        bool all_old = true, all_new = true;
        for (std::size_t vi = 0; vi < vectors_.size(); ++vi) {
          if (outs_[vi].liveouts[i] != vectors_[vi].states[k])
            all_old = false;
          if (outs_[vi].liveouts[i] != outs_[vi].states[k]) all_new = false;
          if (!all_old && !all_new) break;
        }
        if (all_old || all_new) {
          bindings->push_back({spec_.liveout_fields()[i],
                               static_cast<int>(k), /*use_new=*/!all_old});
          bound = true;
        }
      }
      if (!bound) {
        unbindable_liveout_ = spec_.liveout_fields()[i];
        return false;
      }
    }
    return true;
  }

  // --- Predicate enumeration -----------------------------------------------

  std::vector<OperandSel> pred_operands() const {
    std::vector<OperandSel> ops;
    for (std::size_t k = 0; k < spec_.num_states(); ++k)
      ops.push_back(OperandSel::state(static_cast<int>(k)));
    for (std::size_t i = 0; i < spec_.num_inputs(); ++i)
      ops.push_back(OperandSel::field(static_cast<int>(i)));
    for (Value c : const_pool_) ops.push_back(OperandSel::constant(c));
    return ops;
  }

  // Fills pred_cfgs_ with the predicates whose truth bitsets over vectors_
  // are distinct, in enumeration order; preds_ holds those bitsets under the
  // same ids.
  void enumerate_preds() {
    const auto ops = pred_operands();
    const std::size_t nv = vectors_.size();
    // Each operand's value on every vector, evaluated once.
    std::vector<Value> cols(ops.size() * nv);
    for (std::size_t j = 0; j < ops.size(); ++j)
      for (std::size_t vi = 0; vi < nv; ++vi)
        cols[j * nv + vi] =
            ops[j].eval(vectors_[vi].states, vectors_[vi].fields);

    // The degenerate predicate first: gives simpler configurations priority
    // and realizes hierarchy containment (e.g. PRAW with pred=true == RAW).
    preds_.reset(words_);
    pred_cfgs_.assign(1, PredConfig{});
    preds_.insert(all_.data());

    std::vector<Word> truth(words_);
    const RelKind rels[] = {RelKind::kLt, RelKind::kLe, RelKind::kGt,
                            RelKind::kGe, RelKind::kEq, RelKind::kNe};
    for (RelKind rel : rels) {
      for (std::size_t ia = 0; ia < ops.size(); ++ia) {
        for (std::size_t ib = 0; ib < ops.size(); ++ib) {
          if (ia == ib) continue;
          // Constant-vs-constant predicates are either kAlways or useless.
          if (ops[ia].kind == OperandSel::Kind::kConst &&
              ops[ib].kind == OperandSel::Kind::kConst)
            continue;
          ++stats_.candidates_tried;
          truth_bits(rel, &cols[ia * nv], &cols[ib * nv], nv, truth.data());
          // A constant-true predicate is a duplicate of kAlways.
          if (!preds_.insert(truth.data()).second) continue;
          PredConfig cfg;
          cfg.rel = rel;
          cfg.a = ops[ia];
          cfg.b = ops[ib];
          pred_cfgs_.push_back(cfg);
        }
      }
    }
    stats_.unique_predicates = pred_cfgs_.size();
  }

  // --- Arm synthesis --------------------------------------------------------

  std::vector<OperandSel> arm_operands() const {
    std::vector<OperandSel> ops;
    // The LUT extension routes state values into the update path (the ROM
    // input can be another state variable, e.g. CoDel's count feeding the
    // next-mark computation); the paper templates take only fields/constants.
    const bool has_lut =
        std::find(tmpl_.allowed_modes.begin(), tmpl_.allowed_modes.end(),
                  ArmMode::kLutAdd) != tmpl_.allowed_modes.end();
    if (has_lut)
      for (std::size_t k = 0; k < spec_.num_states(); ++k)
        ops.push_back(OperandSel::state(static_cast<int>(k)));
    for (std::size_t i = 0; i < spec_.num_inputs(); ++i)
      ops.push_back(OperandSel::field(static_cast<int>(i)));
    for (Value c : const_pool_) ops.push_back(OperandSel::constant(c));
    return ops;
  }

  static bool mode_uses_src1(ArmMode m) { return m != ArmMode::kKeep; }
  static bool mode_uses_src2(ArmMode m) {
    return m == ArmMode::kSetAdd || m == ArmMode::kSetSub ||
           m == ArmMode::kAddSub || m == ArmMode::kLutAdd;
  }

  // Every update-arm candidate, in search order: mode, then src1, then src2.
  void build_arm_candidates() {
    const auto ops = arm_operands();
    for (ArmMode mode : tmpl_.allowed_modes) {
      ArmConfig arm;
      arm.mode = mode;
      if (!mode_uses_src1(mode)) {
        arm_cands_.push_back(arm);
        continue;
      }
      for (const auto& s1 : ops) {
        arm.src1 = s1;
        if (!mode_uses_src2(mode)) {
          arm_cands_.push_back(arm);
          continue;
        }
        for (const auto& s2 : ops) {
          arm.src2 = s2;
          arm_cands_.push_back(arm);
        }
      }
    }
    rows_.resize(spec_.num_states());
    arm_memo_.resize(spec_.num_states());
    arm_found_.resize(spec_.num_states());
  }

  bool arm_matches(const ArmConfig& arm, std::size_t k, std::size_t vi) const {
    const Vec& v = vectors_[vi];
    return arm.eval(v.states[k], v.states, v.fields) == outs_[vi].states[k];
  }

  std::size_t num_rows(std::size_t k) const {
    return words_ ? rows_[k].size() / words_ : 0;
  }

  // Appends the fit row of the next arm candidate for state k: bit v is set
  // when the candidate yields the spec's next value of state k on vector v.
  // Rows are built on first visit.  Scans always start at candidate 0, so
  // the built rows are a prefix of the candidate list.
  const Word* build_row(std::size_t k) {
    std::vector<Word>& rows = rows_[k];
    const ArmConfig& arm = arm_cands_[num_rows(k)];
    rows.resize(rows.size() + words_, 0);
    Word* row = &rows[rows.size() - words_];
    for (std::size_t vi = 0; vi < vectors_.size(); ++vi)
      if (arm_matches(arm, k, vi)) row[vi / 64] |= Word{1} << (vi % 64);
    return row;
  }

  // Index into arm_cands_ of the first arm for state k that fits every
  // vector of S, or -1.  A scan counts the candidates it visits: index + 1
  // on a hit, all of them on a miss; a memo hit counts none.
  int find_arm(std::size_t k, const Word* S) {
    const auto [id, fresh] = arm_memo_[k].insert(S);
    if (!fresh) return arm_found_[k][id];
    int found = -1;
    const std::size_t built = num_rows(k);
    const Word* row = rows_[k].data();
    for (std::size_t c = 0; c < built; ++c, row += words_) {
      if (covers(row, S, words_)) {
        found = static_cast<int>(c);
        break;
      }
    }
    for (std::size_t c = built; found < 0 && c < arm_cands_.size(); ++c)
      if (covers(build_row(k), S, words_)) found = static_cast<int>(c);
    stats_.candidates_tried +=
        found < 0 ? arm_cands_.size() : static_cast<std::size_t>(found) + 1;
    arm_found_[k].push_back(found);
    return found;
  }

  // One arm candidate index per state variable (templates own at most two).
  using Leaf = std::array<int, 2>;

  bool solve_leaf(const Word* S, Leaf& leaf) {
    for (std::size_t k = 0; k < spec_.num_states(); ++k)
      if ((leaf[k] = find_arm(k, S)) < 0) return false;
    return true;
  }

  std::vector<ArmConfig> arms(const Leaf& leaf) const {
    std::vector<ArmConfig> out;
    for (std::size_t k = 0; k < spec_.num_states(); ++k)
      out.push_back(arm_cands_[static_cast<std::size_t>(leaf[k])]);
    return out;
  }

  struct Side {
    std::size_t pred = 0;
    Leaf leaf_true{}, leaf_false{};
  };

  // Finds (pred, leaf_true, leaf_false) covering S, deduplicating
  // predicates by their truth restricted to S.
  bool solve_side(const Word* S, Side& side) {
    side_seen_.reset(words_);
    Word* t = split_t_.data();
    Word* f = split_f_.data();
    for (std::size_t p = 0; p < pred_cfgs_.size(); ++p) {
      split(S, preds_.key(p), t, f, words_);
      if (!side_seen_.insert(t).second) continue;  // t == truth & S
      if (!solve_leaf(t, side.leaf_true)) continue;
      if (!solve_leaf(f, side.leaf_false)) continue;
      side.pred = p;
      return true;
    }
    return false;
  }

  std::optional<StatefulConfig> search_tree() {
    StatefulConfig config;
    config.kind = tmpl_.kind;

    Leaf lt{}, lf{};
    if (tmpl_.pred_levels == 0) {
      if (!solve_leaf(all_.data(), lt)) return std::nullopt;
      config.leaves = {arms(lt)};
      return config;
    }

    enumerate_preds();
    std::vector<Word> st(words_), sf(words_);

    if (tmpl_.pred_levels == 1) {
      for (std::size_t p = 0; p < pred_cfgs_.size(); ++p) {
        split(all_.data(), preds_.key(p), st.data(), sf.data(), words_);
        if (!solve_leaf(st.data(), lt)) continue;
        std::vector<ArmConfig> lf_arms;
        if (tmpl_.false_leaf_keep) {
          if (!covers(keeps_.data(), sf.data(), words_)) continue;
          lf_arms.assign(spec_.num_states(), ArmConfig{});
        } else {
          if (!solve_leaf(sf.data(), lf)) continue;
          lf_arms = arms(lf);
        }
        config.preds = {pred_cfgs_[p]};
        config.leaves = {arms(lt), std::move(lf_arms)};
        return config;
      }
      return std::nullopt;
    }

    // Two predicate levels (Nested / Pairs / LutPairs).
    split_t_.assign(words_, 0);
    split_f_.assign(words_, 0);
    Side side_t, side_f;
    for (std::size_t p = 0; p < pred_cfgs_.size(); ++p) {
      split(all_.data(), preds_.key(p), st.data(), sf.data(), words_);
      if (!solve_side(st.data(), side_t)) continue;
      if (!solve_side(sf.data(), side_f)) continue;
      config.preds = {pred_cfgs_[p], pred_cfgs_[side_t.pred],
                      pred_cfgs_[side_f.pred]};
      config.leaves = {arms(side_t.leaf_true), arms(side_t.leaf_false),
                       arms(side_f.leaf_true), arms(side_f.leaf_false)};
      return config;
    }
    return std::nullopt;
  }

  // --- Verification ---------------------------------------------------------

  bool check_vector(const StatefulConfig& config,
                    const std::vector<LiveOutBinding>& bindings,
                    const Vec& v) {
    SpecOut& o = check_;
    spec_.eval(v.states, v.fields, o.states, o.liveouts, spec_scratch_);

    std::vector<Value>& got = got_;
    config.eval(v.states, v.fields, got);
    for (std::size_t k = 0; k < spec_.num_states(); ++k)
      if (got[k] != o.states[k]) return false;
    for (std::size_t i = 0; i < bindings.size(); ++i) {
      const auto& b = bindings[i];
      const Value atom_out =
          b.use_new ? got[static_cast<std::size_t>(b.state_idx)]
                    : v.states[static_cast<std::size_t>(b.state_idx)];
      if (atom_out != o.liveouts[i]) return false;
    }
    return true;
  }

  bool verify(const StatefulConfig& config,
              const std::vector<LiveOutBinding>& bindings,
              Vec* counterexample) {
    const std::size_t n = spec_.num_states() + spec_.num_inputs();

    // Exhaustive pass over a small boundary domain when feasible.
    std::set<Value> dset = {-2, -1, 0, 1, 2};
    for (Value c : spec_.constants()) {
      dset.insert(c);
      dset.insert(banzai::wrap_add(c, 1));
      dset.insert(banzai::wrap_sub(c, 1));
    }
    std::vector<Value> domain(dset.begin(), dset.end());
    if (domain.size() > 9) domain.resize(9);
    double combos = 1;
    for (std::size_t i = 0; i < n; ++i) combos *= double(domain.size());
    if (n > 0 && combos <= 8192.0) {
      Vec v;
      v.states.assign(spec_.num_states(), 0);
      v.fields.assign(spec_.num_inputs(), 0);
      std::vector<std::size_t> idx(n, 0);
      while (true) {
        for (std::size_t i = 0; i < n; ++i) slot(v, i) = domain[idx[i]];
        if (!check_vector(config, bindings, v)) {
          *counterexample = v;
          return false;
        }
        std::size_t i = 0;
        for (; i < n; ++i) {
          if (++idx[i] < domain.size()) break;
          idx[i] = 0;
        }
        if (i == n) break;
      }
    }

    // Seeded random pass mixing magnitudes.
    std::mt19937 rng(opts_.seed ^ 0x9e3779b9u);
    std::uniform_int_distribution<int> scale(0, 3);
    std::uniform_int_distribution<Value> tiny(-4, 4);
    std::uniform_int_distribution<Value> small(-64, 64);
    std::uniform_int_distribution<Value> mid(-65536, 65536);
    std::uniform_int_distribution<Value> wide(INT32_MIN, INT32_MAX);
    Vec v;
    v.states.assign(spec_.num_states(), 0);
    v.fields.assign(spec_.num_inputs(), 0);
    for (std::size_t t = 0; t < opts_.random_verify_vectors; ++t) {
      for (std::size_t i = 0; i < n; ++i) {
        switch (scale(rng)) {
          case 0: slot(v, i) = tiny(rng); break;
          case 1: slot(v, i) = small(rng); break;
          case 2: slot(v, i) = mid(rng); break;
          default: slot(v, i) = wide(rng); break;
        }
      }
      if (!check_vector(config, bindings, v)) {
        *counterexample = v;
        return false;
      }
    }
    return true;
  }

  const CodeletSpec& spec_;
  const StatefulTemplateInfo& tmpl_;
  SynthOptions opts_;

  std::vector<Value> const_pool_;
  std::vector<Vec> vectors_;
  std::vector<SpecOut> outs_;  // the spec on each vector

  // Bitsets over vectors_, all words_ wide.
  std::size_t words_ = 0;
  std::vector<Word> all_;    // every vector
  std::vector<Word> keeps_;  // vectors on which the spec changes no state

  std::vector<ArmConfig> arm_cands_;
  std::vector<std::vector<Word>> rows_;  // per state: the built fit rows
  // Per state, per CEGIS iteration: the find_arm result of each subset.
  std::vector<BitsetSet> arm_memo_;
  std::vector<std::vector<int>> arm_found_;  // by arm_memo_ id

  BitsetSet preds_;  // the truth bitset of each of pred_cfgs_
  std::vector<PredConfig> pred_cfgs_;
  BitsetSet side_seen_;
  std::vector<Word> split_t_, split_f_;

  CodeletSpec::Scratch spec_scratch_;
  SpecOut check_;
  std::vector<Value> got_;

  std::string unbindable_liveout_;
  SynthStats stats_;
};

}  // namespace

SynthResult synthesize(const CodeletSpec& spec, atoms::StatefulKind kind,
                       const SynthOptions& opts) {
  Search search(spec, atoms::template_info(kind), opts);
  return search.run();
}

bool check_equivalent(const CodeletSpec& spec,
                      const atoms::StatefulConfig& config,
                      const std::vector<atoms::LiveOutBinding>& liveouts,
                      std::uint32_t seed, std::size_t num_vectors,
                      std::string* mismatch) {
  const std::size_t ns = spec.num_states();
  const std::size_t nf = spec.num_inputs();
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> scale(0, 2);
  std::uniform_int_distribution<Value> small(-32, 32);
  std::uniform_int_distribution<Value> mid(-65536, 65536);
  std::uniform_int_distribution<Value> wide(INT32_MIN, INT32_MAX);

  auto draw = [&]() -> Value {
    switch (scale(rng)) {
      case 0: return small(rng);
      case 1: return mid(rng);
      default: return wide(rng);
    }
  };

  std::vector<Value> states(ns), fields(nf), s_out(ns), got(ns);
  std::vector<Value> liveout_vals(spec.liveout_fields().size());
  CodeletSpec::Scratch scratch;
  for (std::size_t t = 0; t < num_vectors; ++t) {
    for (auto& s : states) s = draw();
    for (auto& f : fields) f = draw();
    spec.eval(states, fields, s_out, liveout_vals, scratch);
    config.eval(states, fields, got);
    for (std::size_t k = 0; k < ns; ++k) {
      if (got[k] != s_out[k]) {
        if (mismatch) {
          std::ostringstream os;
          os << "state " << spec.state_vars()[k] << ": atom=" << got[k]
             << " spec=" << s_out[k];
          *mismatch = os.str();
        }
        return false;
      }
    }
    for (std::size_t i = 0; i < liveouts.size(); ++i) {
      const auto& b = liveouts[i];
      const Value atom_out =
          b.use_new ? got[static_cast<std::size_t>(b.state_idx)]
                    : states[static_cast<std::size_t>(b.state_idx)];
      if (atom_out != liveout_vals[i]) {
        if (mismatch) *mismatch = "live-out " + b.field + " mismatch";
        return false;
      }
    }
  }
  return true;
}

}  // namespace synthesis
