#include "kvstore/btree_kv.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

#include "kvstore/wal_records.h"

namespace loco::kv {

struct BTreeKV::Node {
  explicit Node(bool leaf) : is_leaf(leaf) {}
  virtual ~Node() = default;
  bool is_leaf;
};

struct BTreeKV::Leaf final : Node {
  Leaf() : Node(true) {}
  std::vector<std::string> keys;
  std::vector<std::string> vals;
  Leaf* next = nullptr;
  Leaf* prev = nullptr;
};

struct BTreeKV::Inner final : Node {
  Inner() : Node(false) {}
  std::vector<std::string> keys;  // separators; children.size() == keys.size()+1
  std::vector<std::unique_ptr<Node>> children;
};

namespace {

// Result of a node split during insert: `sep` separates the original node
// (left) from `right`.
struct Split {
  std::string sep;
  std::unique_ptr<BTreeKV::Node> right;
};

// Smallest string strictly greater than every string with this prefix, or
// empty (= unbounded) when no such string exists (prefix is all 0xff).
std::string PrefixUpperBound(std::string_view prefix) {
  std::string hi(prefix);
  while (!hi.empty()) {
    if (static_cast<unsigned char>(hi.back()) != 0xff) {
      hi.back() = static_cast<char>(static_cast<unsigned char>(hi.back()) + 1);
      return hi;
    }
    hi.pop_back();
  }
  return hi;
}

}  // namespace

BTreeKV::BTreeKV(const KvOptions& options)
    : options_(options),
      max_keys_(std::max<std::size_t>(options.btree_order, 4)),
      min_keys_(max_keys_ / 2),
      root_(std::make_unique<Leaf>()) {}

BTreeKV::~BTreeKV() {
  // Deep trees would recurse in unique_ptr destructors; flatten iteratively.
  if (!root_) return;
  std::vector<std::unique_ptr<Node>> stack;
  stack.push_back(std::move(root_));
  while (!stack.empty()) {
    std::unique_ptr<Node> n = std::move(stack.back());
    stack.pop_back();
    if (!n->is_leaf) {
      auto* inner = static_cast<Inner*>(n.get());
      for (auto& c : inner->children) stack.push_back(std::move(c));
    }
  }
}

Status BTreeKV::Open() {
  if (options_.dir.empty()) return OkStatus();
  const std::string path = options_.dir + "/btreekv.wal";
  auto replayed = walrec::Replay(path, [this](const walrec::Record& rec) {
    if (rec.op == walrec::kOpPut) {
      InsertNoLog(rec.key, rec.value);
    } else if (rec.op == walrec::kOpDelete) {
      EraseNoLog(rec.key);
    } else if (std::string* v = FindValue(rec.key);
               v != nullptr && rec.offset + rec.value.size() <= v->size()) {
      v->replace(static_cast<std::size_t>(rec.offset), rec.value.size(),
                 rec.value);
    }
  });
  if (!replayed.ok()) return replayed.status();
  return wal_.Open(path, options_.sync_writes);
}

Status BTreeKV::LogAppend(std::string_view record) {
  stats_.io_ops += 1;
  stats_.io_bytes += Wal::kHeaderBytes + record.size();
  return wal_.Append(record);
}

BTreeKV::Leaf* BTreeKV::FindLeaf(std::string_view key) const noexcept {
  Node* n = root_.get();
  while (!n->is_leaf) {
    auto* inner = static_cast<Inner*>(n);
    const std::size_t idx = static_cast<std::size_t>(
        std::upper_bound(inner->keys.begin(), inner->keys.end(), key) -
        inner->keys.begin());
    n = inner->children[idx].get();
  }
  return static_cast<Leaf*>(n);
}

std::string* BTreeKV::FindValue(std::string_view key) const noexcept {
  Leaf* leaf = FindLeaf(key);
  const auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
  if (it == leaf->keys.end() || *it != key) return nullptr;
  return &leaf->vals[static_cast<std::size_t>(it - leaf->keys.begin())];
}

namespace {

// Recursive insert helper operating on BTreeKV internals.
class Inserter {
 public:
  Inserter(std::size_t max_keys, std::string_view key, std::string_view value)
      : max_keys_(max_keys), key_(key), value_(value) {}

  bool inserted() const noexcept { return inserted_; }

  std::optional<Split> Visit(BTreeKV::Node* n) {
    return n->is_leaf ? VisitLeaf(static_cast<BTreeKV::Leaf*>(n))
                      : VisitInner(static_cast<BTreeKV::Inner*>(n));
  }

 private:
  std::optional<Split> VisitLeaf(BTreeKV::Leaf* leaf) {
    const auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key_);
    const std::size_t pos = static_cast<std::size_t>(it - leaf->keys.begin());
    if (it != leaf->keys.end() && *it == key_) {
      leaf->vals[pos].assign(value_);  // overwrite
      inserted_ = false;
      return std::nullopt;
    }
    leaf->keys.emplace(it, key_);
    leaf->vals.emplace(leaf->vals.begin() + static_cast<std::ptrdiff_t>(pos),
                       value_);
    inserted_ = true;
    if (leaf->keys.size() <= max_keys_) return std::nullopt;

    // Split: move the upper half to a new right leaf.
    auto right = std::make_unique<BTreeKV::Leaf>();
    const std::size_t mid = leaf->keys.size() / 2;
    right->keys.assign(std::make_move_iterator(leaf->keys.begin() +
                                               static_cast<std::ptrdiff_t>(mid)),
                       std::make_move_iterator(leaf->keys.end()));
    right->vals.assign(std::make_move_iterator(leaf->vals.begin() +
                                               static_cast<std::ptrdiff_t>(mid)),
                       std::make_move_iterator(leaf->vals.end()));
    leaf->keys.resize(mid);
    leaf->vals.resize(mid);
    right->next = leaf->next;
    right->prev = leaf;
    if (right->next != nullptr) right->next->prev = right.get();
    leaf->next = right.get();
    Split s;
    s.sep = right->keys.front();
    s.right = std::move(right);
    return s;
  }

  std::optional<Split> VisitInner(BTreeKV::Inner* inner) {
    const std::size_t idx = static_cast<std::size_t>(
        std::upper_bound(inner->keys.begin(), inner->keys.end(), key_) -
        inner->keys.begin());
    auto child_split = Visit(inner->children[idx].get());
    if (!child_split) return std::nullopt;
    inner->keys.insert(inner->keys.begin() + static_cast<std::ptrdiff_t>(idx),
                       std::move(child_split->sep));
    inner->children.insert(
        inner->children.begin() + static_cast<std::ptrdiff_t>(idx) + 1,
        std::move(child_split->right));
    if (inner->keys.size() <= max_keys_) return std::nullopt;

    // Split inner: middle separator moves up.
    auto right = std::make_unique<BTreeKV::Inner>();
    const std::size_t mid = inner->keys.size() / 2;
    Split s;
    s.sep = std::move(inner->keys[mid]);
    right->keys.assign(
        std::make_move_iterator(inner->keys.begin() +
                                static_cast<std::ptrdiff_t>(mid) + 1),
        std::make_move_iterator(inner->keys.end()));
    right->children.assign(
        std::make_move_iterator(inner->children.begin() +
                                static_cast<std::ptrdiff_t>(mid) + 1),
        std::make_move_iterator(inner->children.end()));
    inner->keys.resize(mid);
    inner->children.resize(mid + 1);
    s.right = std::move(right);
    return s;
  }

  std::size_t max_keys_;
  std::string_view key_;
  std::string_view value_;
  bool inserted_ = false;
};

}  // namespace

void BTreeKV::InsertNoLog(std::string_view key, std::string_view value) {
  Inserter ins(max_keys_, key, value);
  auto split = ins.Visit(root_.get());
  if (split) {
    auto new_root = std::make_unique<Inner>();
    new_root->keys.push_back(std::move(split->sep));
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split->right));
    root_ = std::move(new_root);
  }
  if (ins.inserted()) ++size_;
}

namespace {

// Deletion helper: classic B+-tree erase with borrow / merge rebalancing.
class Eraser {
 public:
  Eraser(std::size_t min_keys, std::string_view key)
      : min_keys_(min_keys), key_(key) {}

  bool Visit(BTreeKV::Node* n) {
    if (n->is_leaf) {
      auto* leaf = static_cast<BTreeKV::Leaf*>(n);
      const auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key_);
      if (it == leaf->keys.end() || *it != key_) return false;
      const std::size_t pos = static_cast<std::size_t>(it - leaf->keys.begin());
      leaf->keys.erase(it);
      leaf->vals.erase(leaf->vals.begin() + static_cast<std::ptrdiff_t>(pos));
      return true;
    }
    auto* inner = static_cast<BTreeKV::Inner*>(n);
    const std::size_t idx = static_cast<std::size_t>(
        std::upper_bound(inner->keys.begin(), inner->keys.end(), key_) -
        inner->keys.begin());
    const bool erased = Visit(inner->children[idx].get());
    if (erased && Underflows(inner->children[idx].get())) FixChild(inner, idx);
    return erased;
  }

 private:
  bool Underflows(const BTreeKV::Node* n) const noexcept {
    if (n->is_leaf) {
      return static_cast<const BTreeKV::Leaf*>(n)->keys.size() < min_keys_;
    }
    return static_cast<const BTreeKV::Inner*>(n)->keys.size() < min_keys_;
  }

  // How many keys a sibling can spare.
  static std::size_t KeyCount(const BTreeKV::Node* n) noexcept {
    return n->is_leaf ? static_cast<const BTreeKV::Leaf*>(n)->keys.size()
                      : static_cast<const BTreeKV::Inner*>(n)->keys.size();
  }

  void FixChild(BTreeKV::Inner* parent, std::size_t idx) {
    const bool has_left = idx > 0;
    const bool has_right = idx + 1 < parent->children.size();
    if (has_left && KeyCount(parent->children[idx - 1].get()) > min_keys_) {
      BorrowFromLeft(parent, idx);
    } else if (has_right &&
               KeyCount(parent->children[idx + 1].get()) > min_keys_) {
      BorrowFromRight(parent, idx);
    } else if (has_left) {
      MergeChildren(parent, idx - 1);
    } else {
      MergeChildren(parent, idx);
    }
  }

  void BorrowFromLeft(BTreeKV::Inner* parent, std::size_t idx) {
    BTreeKV::Node* cn = parent->children[idx].get();
    BTreeKV::Node* ln = parent->children[idx - 1].get();
    if (cn->is_leaf) {
      auto* c = static_cast<BTreeKV::Leaf*>(cn);
      auto* l = static_cast<BTreeKV::Leaf*>(ln);
      c->keys.insert(c->keys.begin(), std::move(l->keys.back()));
      c->vals.insert(c->vals.begin(), std::move(l->vals.back()));
      l->keys.pop_back();
      l->vals.pop_back();
      parent->keys[idx - 1] = c->keys.front();
    } else {
      auto* c = static_cast<BTreeKV::Inner*>(cn);
      auto* l = static_cast<BTreeKV::Inner*>(ln);
      c->keys.insert(c->keys.begin(), std::move(parent->keys[idx - 1]));
      parent->keys[idx - 1] = std::move(l->keys.back());
      l->keys.pop_back();
      c->children.insert(c->children.begin(), std::move(l->children.back()));
      l->children.pop_back();
    }
  }

  void BorrowFromRight(BTreeKV::Inner* parent, std::size_t idx) {
    BTreeKV::Node* cn = parent->children[idx].get();
    BTreeKV::Node* rn = parent->children[idx + 1].get();
    if (cn->is_leaf) {
      auto* c = static_cast<BTreeKV::Leaf*>(cn);
      auto* r = static_cast<BTreeKV::Leaf*>(rn);
      c->keys.push_back(std::move(r->keys.front()));
      c->vals.push_back(std::move(r->vals.front()));
      r->keys.erase(r->keys.begin());
      r->vals.erase(r->vals.begin());
      parent->keys[idx] = r->keys.front();
    } else {
      auto* c = static_cast<BTreeKV::Inner*>(cn);
      auto* r = static_cast<BTreeKV::Inner*>(rn);
      c->keys.push_back(std::move(parent->keys[idx]));
      parent->keys[idx] = std::move(r->keys.front());
      r->keys.erase(r->keys.begin());
      c->children.push_back(std::move(r->children.front()));
      r->children.erase(r->children.begin());
    }
  }

  // Merge children[i] and children[i+1] into children[i].
  void MergeChildren(BTreeKV::Inner* parent, std::size_t i) {
    BTreeKV::Node* ln = parent->children[i].get();
    if (ln->is_leaf) {
      auto* l = static_cast<BTreeKV::Leaf*>(ln);
      auto* r = static_cast<BTreeKV::Leaf*>(parent->children[i + 1].get());
      l->keys.insert(l->keys.end(), std::make_move_iterator(r->keys.begin()),
                     std::make_move_iterator(r->keys.end()));
      l->vals.insert(l->vals.end(), std::make_move_iterator(r->vals.begin()),
                     std::make_move_iterator(r->vals.end()));
      l->next = r->next;
      if (r->next != nullptr) r->next->prev = l;
    } else {
      auto* l = static_cast<BTreeKV::Inner*>(ln);
      auto* r = static_cast<BTreeKV::Inner*>(parent->children[i + 1].get());
      l->keys.push_back(std::move(parent->keys[i]));
      l->keys.insert(l->keys.end(), std::make_move_iterator(r->keys.begin()),
                     std::make_move_iterator(r->keys.end()));
      l->children.insert(l->children.end(),
                         std::make_move_iterator(r->children.begin()),
                         std::make_move_iterator(r->children.end()));
    }
    parent->keys.erase(parent->keys.begin() + static_cast<std::ptrdiff_t>(i));
    parent->children.erase(parent->children.begin() +
                           static_cast<std::ptrdiff_t>(i) + 1);
  }

  std::size_t min_keys_;
  std::string_view key_;
};

}  // namespace

bool BTreeKV::EraseNoLog(std::string_view key) {
  Eraser eraser(min_keys_, key);
  const bool erased = eraser.Visit(root_.get());
  if (!erased) return false;
  --size_;
  // Shrink the root if an inner root lost all separators.
  if (!root_->is_leaf) {
    auto* inner = static_cast<Inner*>(root_.get());
    if (inner->children.size() == 1) {
      root_ = std::move(inner->children.front());
    }
  }
  return true;
}

Status BTreeKV::Put(std::string_view key, std::string_view value) {
  stats_.puts += 1;
  stats_.bytes_written += key.size() + value.size();
  InsertNoLog(key, value);
  return wal_.IsOpen() ? LogAppend(walrec::EncodePut(key, value)) : OkStatus();
}

Status BTreeKV::Get(std::string_view key, std::string* value) const {
  stats_.gets += 1;
  std::string* v = FindValue(key);
  if (v == nullptr) return ErrStatus(ErrCode::kNotFound);
  value->assign(*v);
  stats_.bytes_read += v->size();
  return OkStatus();
}

Status BTreeKV::Delete(std::string_view key) {
  stats_.deletes += 1;
  if (!EraseNoLog(key)) return ErrStatus(ErrCode::kNotFound);
  return wal_.IsOpen() ? LogAppend(walrec::EncodeDelete(key)) : OkStatus();
}

bool BTreeKV::Contains(std::string_view key) const {
  stats_.gets += 1;
  return FindValue(key) != nullptr;
}

Status BTreeKV::PatchValue(std::string_view key, std::size_t offset,
                           std::string_view patch) {
  stats_.patches += 1;
  std::string* v = FindValue(key);
  if (v == nullptr) return ErrStatus(ErrCode::kNotFound);
  if (offset + patch.size() > v->size()) {
    return ErrStatus(ErrCode::kInvalid, "patch out of range");
  }
  v->replace(offset, patch.size(), patch);
  stats_.bytes_written += patch.size();
  return wal_.IsOpen() ? LogAppend(walrec::EncodePatch(key, offset, patch))
                       : OkStatus();
}

Status BTreeKV::ReadValueAt(std::string_view key, std::size_t offset,
                            std::size_t len, std::string* out) const {
  stats_.gets += 1;
  std::string* v = FindValue(key);
  if (v == nullptr) return ErrStatus(ErrCode::kNotFound);
  if (offset + len > v->size()) {
    return ErrStatus(ErrCode::kInvalid, "read out of range");
  }
  out->assign(*v, offset, len);
  stats_.bytes_read += len;
  return OkStatus();
}

Status BTreeKV::VisitRange(std::string_view lo, std::string_view hi,
                           std::size_t limit, const Visitor& fn) const {
  stats_.scans += 1;
  Leaf* leaf = FindLeaf(lo);
  std::size_t pos = static_cast<std::size_t>(
      std::lower_bound(leaf->keys.begin(), leaf->keys.end(), lo) -
      leaf->keys.begin());
  std::size_t visited = 0;
  while (leaf != nullptr) {
    for (; pos < leaf->keys.size(); ++pos) {
      const std::string& k = leaf->keys[pos];
      if (!hi.empty() && k >= hi) return OkStatus();
      stats_.scan_items += 1;
      stats_.bytes_read += leaf->vals[pos].size();
      if (!fn(k, leaf->vals[pos])) return OkStatus();
      if (limit != 0 && ++visited >= limit) return OkStatus();
    }
    leaf = leaf->next;
    pos = 0;
  }
  return OkStatus();
}

Status BTreeKV::ScanRange(std::string_view lo, std::string_view hi,
                          std::size_t limit, std::vector<Entry>* out) const {
  return VisitRange(lo, hi, limit,
                    [out](std::string_view key, std::string_view value) {
                      out->emplace_back(key, value);
                      return true;
                    });
}

Status BTreeKV::ScanPrefix(std::string_view prefix, std::size_t limit,
                           std::vector<Entry>* out) const {
  return ScanRange(prefix, PrefixUpperBound(prefix), limit, out);
}

Status BTreeKV::VisitPrefix(std::string_view prefix, std::size_t limit,
                            const Visitor& fn) const {
  return VisitRange(prefix, PrefixUpperBound(prefix), limit, fn);
}

void BTreeKV::ForEach(
    const std::function<bool(std::string_view, std::string_view)>& fn) const {
  stats_.scans += 1;
  // Walk to the leftmost leaf, then follow the chain.
  Node* n = root_.get();
  while (!n->is_leaf) n = static_cast<Inner*>(n)->children.front().get();
  for (Leaf* leaf = static_cast<Leaf*>(n); leaf != nullptr; leaf = leaf->next) {
    for (std::size_t i = 0; i < leaf->keys.size(); ++i) {
      stats_.scan_items += 1;
      if (!fn(leaf->keys[i], leaf->vals[i])) return;
    }
  }
}

std::size_t BTreeKV::Height() const noexcept {
  std::size_t h = 1;
  const Node* n = root_.get();
  while (!n->is_leaf) {
    n = static_cast<const Inner*>(n)->children.front().get();
    ++h;
  }
  return h;
}

namespace {

struct CheckContext {
  std::size_t max_keys;
  std::size_t min_keys;
  bool ok = true;
  int leaf_depth = -1;
  const BTreeKV::Leaf* prev_leaf = nullptr;
  std::string prev_key;
  bool have_prev_key = false;
};

void CheckNode(const BTreeKV::Node* n, int depth, const std::string* lo,
               const std::string* hi, bool is_root, CheckContext* ctx) {
  if (!ctx->ok) return;
  if (n->is_leaf) {
    const auto* leaf = static_cast<const BTreeKV::Leaf*>(n);
    if (ctx->leaf_depth == -1) ctx->leaf_depth = depth;
    if (depth != ctx->leaf_depth) { ctx->ok = false; return; }
    if (!is_root && leaf->keys.size() < ctx->min_keys) { ctx->ok = false; return; }
    if (leaf->keys.size() > ctx->max_keys ||
        leaf->keys.size() != leaf->vals.size()) { ctx->ok = false; return; }
    if (leaf->prev != ctx->prev_leaf) { ctx->ok = false; return; }
    if (ctx->prev_leaf != nullptr && ctx->prev_leaf->next != leaf) {
      ctx->ok = false;
      return;
    }
    ctx->prev_leaf = leaf;
    for (const std::string& k : leaf->keys) {
      if (ctx->have_prev_key && !(ctx->prev_key < k)) { ctx->ok = false; return; }
      if (lo != nullptr && k < *lo) { ctx->ok = false; return; }
      if (hi != nullptr && !(k < *hi)) { ctx->ok = false; return; }
      ctx->prev_key = k;
      ctx->have_prev_key = true;
    }
    return;
  }
  const auto* inner = static_cast<const BTreeKV::Inner*>(n);
  if (inner->children.size() != inner->keys.size() + 1) { ctx->ok = false; return; }
  if (!is_root && inner->keys.size() < ctx->min_keys) { ctx->ok = false; return; }
  if (inner->keys.size() > ctx->max_keys) { ctx->ok = false; return; }
  if (is_root && inner->children.size() < 2) { ctx->ok = false; return; }
  if (!std::is_sorted(inner->keys.begin(), inner->keys.end())) {
    ctx->ok = false;
    return;
  }
  for (std::size_t i = 0; i < inner->children.size(); ++i) {
    const std::string* child_lo = (i == 0) ? lo : &inner->keys[i - 1];
    const std::string* child_hi = (i == inner->keys.size()) ? hi : &inner->keys[i];
    CheckNode(inner->children[i].get(), depth + 1, child_lo, child_hi, false, ctx);
  }
}

}  // namespace

bool BTreeKV::CheckInvariants() const {
  CheckContext ctx;
  ctx.max_keys = max_keys_;
  ctx.min_keys = min_keys_;
  CheckNode(root_.get(), 0, nullptr, nullptr, true, &ctx);
  if (!ctx.ok) return false;
  // The rightmost visited leaf must terminate the chain.
  if (ctx.prev_leaf != nullptr && ctx.prev_leaf->next != nullptr) return false;
  // Entry count must agree.
  std::size_t counted = 0;
  const Node* n = root_.get();
  while (!n->is_leaf) n = static_cast<const Inner*>(n)->children.front().get();
  for (const Leaf* leaf = static_cast<const Leaf*>(n); leaf != nullptr;
       leaf = leaf->next) {
    counted += leaf->keys.size();
  }
  return counted == size_;
}

}  // namespace loco::kv
