// Copyright (c) 2026 The siri Authors. MIT license.

#include "index/mpt/mpt.h"

#include <algorithm>

#include "common/varint.h"
#include "index/diff.h"
#include "store/staging_store.h"

namespace siri {

namespace {
constexpr char kLeafNodeTag = 'l';
constexpr char kExtNodeTag = 'e';
constexpr char kBranchNodeTag = 'n';
}  // namespace

/// Decoded MPT node. Serialized forms:
///   leaf:      'l' | nibble path | lp(value)
///   extension: 'e' | nibble path | 32-byte child digest
///   branch:    'n' | 2-byte child bitmap | 1-byte has_value |
///              [lp(value)] | one 32-byte digest per set bitmap bit
struct Mpt::Node {
  enum class Type { kLeaf, kExt, kBranch };

  Type type = Type::kLeaf;
  Nibbles path;           // leaf/extension compressed path
  std::string value;      // leaf value, or branch value when has_value
  bool has_value = false; // branch only
  Hash child;             // extension target
  Hash children[16];      // branch slots (zero digest = empty)

  std::string Encode() const {
    std::string out;
    switch (type) {
      case Type::kLeaf:
        out.push_back(kLeafNodeTag);
        EncodeNibblePath(&out, path.data(), path.size());
        PutLengthPrefixed(&out, value);
        break;
      case Type::kExt:
        out.push_back(kExtNodeTag);
        EncodeNibblePath(&out, path.data(), path.size());
        out.append(reinterpret_cast<const char*>(child.data()), Hash::kSize);
        break;
      case Type::kBranch: {
        out.push_back(kBranchNodeTag);
        uint16_t bitmap = 0;
        for (int i = 0; i < 16; ++i) {
          if (!children[i].IsZero()) bitmap |= static_cast<uint16_t>(1u << i);
        }
        out.push_back(static_cast<char>(bitmap & 0xff));
        out.push_back(static_cast<char>(bitmap >> 8));
        out.push_back(has_value ? 1 : 0);
        if (has_value) PutLengthPrefixed(&out, value);
        for (int i = 0; i < 16; ++i) {
          if (!children[i].IsZero()) {
            out.append(reinterpret_cast<const char*>(children[i].data()),
                       Hash::kSize);
          }
        }
        break;
      }
    }
    return out;
  }

  static Result<Node> Decode(Slice in) {
    Node n;
    if (in.empty()) return Status::Corruption("empty MPT node");
    const char tag = in[0];
    in.remove_prefix(1);
    switch (tag) {
      case kLeafNodeTag: {
        n.type = Type::kLeaf;
        if (!DecodeNibblePath(&in, &n.path)) {
          return Status::Corruption("bad leaf path");
        }
        if (!GetLengthPrefixed(&in, &n.value)) {
          return Status::Corruption("bad leaf value");
        }
        break;
      }
      case kExtNodeTag: {
        n.type = Type::kExt;
        if (!DecodeNibblePath(&in, &n.path)) {
          return Status::Corruption("bad ext path");
        }
        if (in.size() < Hash::kSize) {
          return Status::Corruption("bad ext child");
        }
        n.child = Hash::FromBytes(in.data());
        in.remove_prefix(Hash::kSize);
        break;
      }
      case kBranchNodeTag: {
        n.type = Type::kBranch;
        if (in.size() < 3) return Status::Corruption("bad branch header");
        const uint16_t bitmap =
            static_cast<uint8_t>(in[0]) |
            (static_cast<uint16_t>(static_cast<uint8_t>(in[1])) << 8);
        n.has_value = in[2] != 0;
        in.remove_prefix(3);
        if (n.has_value && !GetLengthPrefixed(&in, &n.value)) {
          return Status::Corruption("bad branch value");
        }
        for (int i = 0; i < 16; ++i) {
          if (bitmap & (1u << i)) {
            if (in.size() < Hash::kSize) {
              return Status::Corruption("bad branch child");
            }
            n.children[i] = Hash::FromBytes(in.data());
            in.remove_prefix(Hash::kSize);
          }
        }
        break;
      }
      default:
        return Status::Corruption("unknown MPT node tag");
    }
    if (!in.empty()) return Status::Corruption("trailing MPT bytes");
    return n;
  }
};

namespace mpt_internal {

template <typename NodeT>
Result<NodeT> LoadNodeImpl(NodeStore* store, const Hash& h,
                           LookupStats* stats = nullptr,
                           const LookupPath* at = nullptr) {
  auto bytes = at != nullptr ? store->GetOnPath(h, *at) : store->Get(h);
  if (!bytes.ok()) return bytes.status();
  if (stats) {
    ++stats->depth;
    ++stats->nodes_loaded;
    stats->bytes_loaded += (*bytes)->size();
  }
  return NodeT::Decode(**bytes);
}

}  // namespace mpt_internal

// Private-member-friendly alias used throughout this file.
#define LoadNode mpt_internal::LoadNodeImpl<Mpt::Node>

Mpt::Mpt(NodeStorePtr store) : ImmutableIndex(std::move(store)) {}

// ---------------------------------------------------------------------------
// Batch mutation
//
// A Ref is clean — the stored digest of a subtree the batch has not
// changed, loaded only when the batch must look inside it — or dirty: an
// owned MemNode whose children are Refs in turn, and whose digest does not
// exist until Seal.

struct Mpt::Ref {
  Hash hash;                     // clean subtree digest (zero = empty)
  std::unique_ptr<MemNode> mem;  // set = dirty; `hash` is then stale

  bool IsEmpty() const { return !mem && hash.IsZero(); }

  static Ref Leaf(Nibbles path, Slice value);
  static Ref Ext(Nibbles path, Ref child);

  /// Stages every dirty node below this ref into \p staging, children
  /// first, and returns the subtree digest.
  Hash SealInto(NodeStore* staging);
};

/// A node owned by the batch tree. `node` holds its own fields; its child
/// digests are filled in from `kids` (an extension uses kids[0]) at Seal.
struct Mpt::MemNode {
  Node node;
  Ref kids[16];
};

Mpt::Ref Mpt::Ref::Leaf(Nibbles path, Slice value) {
  Ref r;
  r.mem = std::make_unique<MemNode>();
  r.mem->node.type = Node::Type::kLeaf;
  r.mem->node.path = std::move(path);
  r.mem->node.value = value.ToString();
  return r;
}

Mpt::Ref Mpt::Ref::Ext(Nibbles path, Ref child) {
  Ref r;
  r.mem = std::make_unique<MemNode>();
  r.mem->node.type = Node::Type::kExt;
  r.mem->node.path = std::move(path);
  r.mem->kids[0] = std::move(child);
  return r;
}

Hash Mpt::Ref::SealInto(NodeStore* staging) {
  if (!mem) return hash;
  Node& n = mem->node;
  if (n.type == Node::Type::kExt) n.child = mem->kids[0].SealInto(staging);
  if (n.type == Node::Type::kBranch) {
    for (int i = 0; i < 16; ++i) n.children[i] = mem->kids[i].SealInto(staging);
  }
  return staging->Put(n.Encode());
}

Hash Mpt::Seal(Ref* tree) {
  StagingNodeStore staging(store_.get());
  const Hash root = tree->SealInto(&staging);
  staging.FlushBatch();
  return root;
}

Result<Mpt::MemNode*> Mpt::View(const Ref& ref,
                                std::unique_ptr<MemNode>* loaded) const {
  if (ref.mem) return ref.mem.get();
  auto n = LoadNode(store_.get(), ref.hash);
  if (!n.ok()) return n.status();
  *loaded = std::make_unique<MemNode>();
  MemNode* m = loaded->get();
  m->node = std::move(*n);
  if (m->node.type == Node::Type::kExt) m->kids[0].hash = m->node.child;
  if (m->node.type == Node::Type::kBranch) {
    for (int i = 0; i < 16; ++i) m->kids[i].hash = m->node.children[i];
  }
  return m;
}

Status Mpt::InsertRec(Ref* ref, const uint8_t* path, size_t len,
                      Slice value) {
  if (ref->IsEmpty()) {
    *ref = Ref::Leaf(Nibbles(path, path + len), value);
    return Status::OK();
  }
  std::unique_ptr<MemNode> loaded;
  auto view = View(*ref, &loaded);
  if (!view.ok()) return view.status();
  if (loaded) ref->mem = std::move(loaded);  // every node on the path changes
  MemNode& m = **view;
  Node& n = m.node;

  if (n.type == Node::Type::kBranch) {
    if (len == 0) {
      n.has_value = true;
      n.value = value.ToString();
      return Status::OK();
    }
    return InsertRec(&m.kids[path[0]], path + 1, len - 1, value);
  }

  const size_t common =
      CommonNibblePrefix(n.path.data(), n.path.size(), path, len);
  if (n.type == Node::Type::kLeaf && common == n.path.size() &&
      common == len) {
    n.value = value.ToString();  // exact key: overwrite the value
    return Status::OK();
  }
  if (n.type == Node::Type::kExt && common == n.path.size()) {
    // The whole compressed path matches: descend.
    return InsertRec(&m.kids[0], path + common, len - common, value);
  }

  // Diverge inside this leaf's or extension's path: a branch takes over at
  // the split point, and this node keeps the remainder below it.
  Ref branch{Hash::Zero(), std::make_unique<MemNode>()};
  Node& b = branch.mem->node;
  b.type = Node::Type::kBranch;
  if (common == n.path.size()) {
    b.has_value = true;  // a leaf whose key ends at the split
    b.value = std::move(n.value);
  } else {
    const uint8_t nibble = n.path[common];
    if (n.type == Node::Type::kExt && common + 1 == n.path.size()) {
      branch.mem->kids[nibble] = std::move(m.kids[0]);
    } else {
      n.path.erase(n.path.begin(), n.path.begin() + common + 1);
      branch.mem->kids[nibble] = std::move(*ref);
    }
  }
  if (common == len) {
    b.has_value = true;
    b.value = value.ToString();
  } else {
    branch.mem->kids[path[common]] =
        Ref::Leaf(Nibbles(path + common + 1, path + len), value);
  }
  if (common == 0) {
    *ref = std::move(branch);
  } else {
    *ref = Ref::Ext(Nibbles(path, path + common), std::move(branch));
  }
  return Status::OK();
}

Status Mpt::Reattach(const Nibbles& prefix, Ref* child) {
  if (prefix.empty() || child->IsEmpty()) return Status::OK();
  std::unique_ptr<MemNode> loaded;
  auto view = View(*child, &loaded);
  if (!view.ok()) return view.status();
  Node& c = (*view)->node;
  if (c.type == Node::Type::kBranch) {
    *child = Ref::Ext(prefix, std::move(*child));
    return Status::OK();
  }
  // Merge the prefix into the child's own compressed path.
  c.path.insert(c.path.begin(), prefix.begin(), prefix.end());
  if (loaded) child->mem = std::move(loaded);
  return Status::OK();
}

Result<bool> Mpt::DeleteRec(Ref* ref, const uint8_t* path, size_t len) {
  if (ref->IsEmpty()) return false;  // key absent
  // A clean node is loaded into `loaded` and adopted only if it changes, so
  // a miss leaves the path clean and nothing is re-staged.
  std::unique_ptr<MemNode> loaded;
  auto view = View(*ref, &loaded);
  if (!view.ok()) return view.status();
  MemNode& m = **view;
  Node& n = m.node;

  switch (n.type) {
    case Node::Type::kLeaf: {
      if (n.path.size() != len ||
          CommonNibblePrefix(n.path.data(), n.path.size(), path, len) != len) {
        return false;
      }
      *ref = Ref();  // leaf removed
      return true;
    }

    case Node::Type::kExt: {
      if (len < n.path.size() ||
          CommonNibblePrefix(n.path.data(), n.path.size(), path, len) !=
              n.path.size()) {
        return false;  // key not under this extension
      }
      auto changed =
          DeleteRec(&m.kids[0], path + n.path.size(), len - n.path.size());
      if (!changed.ok() || !*changed) return changed;
      // The child may be gone, or have collapsed to a leaf/ext: merge paths.
      Ref child = std::move(m.kids[0]);
      Status s = Reattach(n.path, &child);
      if (!s.ok()) return s;
      *ref = std::move(child);
      return true;
    }

    case Node::Type::kBranch: {
      if (len == 0) {
        if (!n.has_value) return false;  // nothing stored here
        n.has_value = false;
        n.value.clear();
      } else {
        auto changed = DeleteRec(&m.kids[path[0]], path + 1, len - 1);
        if (!changed.ok() || !*changed) return changed;
      }

      // Normalize the branch after the removal.
      int children = 0;
      uint8_t last = 0;
      for (uint8_t i = 0; i < 16; ++i) {
        if (m.kids[i].IsEmpty()) continue;
        ++children;
        last = i;
      }
      if (children == 0) {
        *ref = n.has_value ? Ref::Leaf({}, n.value) : Ref();
        return true;
      }
      if (children == 1 && !n.has_value) {
        // Collapse: merge the lone child into its selecting nibble.
        Ref child = std::move(m.kids[last]);
        Status s = Reattach(Nibbles{last}, &child);
        if (!s.ok()) return s;
        *ref = std::move(child);
        return true;
      }
      if (loaded) ref->mem = std::move(loaded);
      return true;
    }
  }
  return Status::Corruption("unreachable");
}

// ---------------------------------------------------------------------------
// Public write API

Result<Hash> Mpt::PutBatch(const Hash& root, std::vector<KV> kvs) {
  Ref tree{root, nullptr};
  for (const KV& kv : kvs) {
    const Nibbles path = KeyToNibbles(kv.key);
    Status s = InsertRec(&tree, path.data(), path.size(), kv.value);
    if (!s.ok()) return s;
  }
  return Seal(&tree);
}

Result<Hash> Mpt::DeleteBatch(const Hash& root, std::vector<std::string> keys) {
  Ref tree{root, nullptr};
  for (const std::string& k : keys) {
    const Nibbles path = KeyToNibbles(k);
    auto changed = DeleteRec(&tree, path.data(), path.size());
    if (!changed.ok()) return changed.status();
  }
  return Seal(&tree);
}

// ---------------------------------------------------------------------------
// Lookup / proof

Result<std::optional<std::string>> Mpt::Get(const Hash& root, Slice key,
                                            LookupStats* stats) const {
  const Nibbles nibbles = KeyToNibbles(key);
  const uint8_t* path = nibbles.data();
  size_t len = nibbles.size();
  const std::string structure = name();
  LookupPath at{structure, root, key};
  Hash cur = root;
  while (true) {
    if (cur.IsZero()) return std::optional<std::string>{};
    auto loaded = LoadNode(store_.get(), cur, stats, &at);
    if (!loaded.ok()) return loaded.status();
    ++at.depth;
    Node& n = *loaded;
    switch (n.type) {
      case Node::Type::kLeaf: {
        if (n.path.size() == len &&
            CommonNibblePrefix(n.path.data(), n.path.size(), path, len) ==
                len) {
          return std::optional<std::string>{std::move(n.value)};
        }
        return std::optional<std::string>{};
      }
      case Node::Type::kExt: {
        if (len < n.path.size() ||
            CommonNibblePrefix(n.path.data(), n.path.size(), path, len) !=
                n.path.size()) {
          return std::optional<std::string>{};
        }
        path += n.path.size();
        len -= n.path.size();
        cur = n.child;
        break;
      }
      case Node::Type::kBranch: {
        if (len == 0) {
          if (n.has_value) {
            return std::optional<std::string>{std::move(n.value)};
          }
          return std::optional<std::string>{};
        }
        cur = n.children[path[0]];
        ++path;
        --len;
        break;
      }
    }
  }
}

Result<Proof> Mpt::GetProof(const Hash& root, Slice key) const {
  Proof proof;
  proof.key = key.ToString();
  const Nibbles nibbles = KeyToNibbles(key);
  const uint8_t* path = nibbles.data();
  size_t len = nibbles.size();
  Hash cur = root;
  while (!cur.IsZero()) {
    auto bytes = store_->Get(cur);
    if (!bytes.ok()) return bytes.status();
    proof.nodes.push_back(**bytes);
    auto decoded = Node::Decode(**bytes);
    if (!decoded.ok()) return decoded.status();
    Node& n = *decoded;
    if (n.type == Node::Type::kLeaf) {
      if (n.path.size() == len &&
          CommonNibblePrefix(n.path.data(), n.path.size(), path, len) == len) {
        proof.value = std::move(n.value);
      }
      return proof;
    }
    if (n.type == Node::Type::kExt) {
      if (len < n.path.size() ||
          CommonNibblePrefix(n.path.data(), n.path.size(), path, len) !=
              n.path.size()) {
        return proof;
      }
      path += n.path.size();
      len -= n.path.size();
      cur = n.child;
      continue;
    }
    // Branch.
    if (len == 0) {
      if (n.has_value) proof.value = std::move(n.value);
      return proof;
    }
    cur = n.children[path[0]];
    ++path;
    --len;
  }
  return proof;
}

// ---------------------------------------------------------------------------
// Scan / collect

Status Mpt::ScanRec(const Hash& node, Nibbles* prefix,
                    const std::function<void(Slice, Slice)>& fn) const {
  if (node.IsZero()) return Status::OK();
  auto loaded = LoadNode(store_.get(), node);
  if (!loaded.ok()) return loaded.status();
  Node& n = *loaded;
  switch (n.type) {
    case Node::Type::kLeaf: {
      prefix->insert(prefix->end(), n.path.begin(), n.path.end());
      fn(NibblesToKey(*prefix), n.value);
      prefix->resize(prefix->size() - n.path.size());
      return Status::OK();
    }
    case Node::Type::kExt: {
      prefix->insert(prefix->end(), n.path.begin(), n.path.end());
      Status s = ScanRec(n.child, prefix, fn);
      prefix->resize(prefix->size() - n.path.size());
      return s;
    }
    case Node::Type::kBranch: {
      if (n.has_value) fn(NibblesToKey(*prefix), n.value);
      for (uint8_t i = 0; i < 16; ++i) {
        if (n.children[i].IsZero()) continue;
        prefix->push_back(i);
        Status s = ScanRec(n.children[i], prefix, fn);
        prefix->pop_back();
        if (!s.ok()) return s;
      }
      return Status::OK();
    }
  }
  return Status::Corruption("unreachable");
}

Status Mpt::Scan(const Hash& root,
                 const std::function<void(Slice, Slice)>& fn) const {
  Nibbles prefix;
  return ScanRec(root, &prefix, fn);
}

Status Mpt::CollectRec(const Hash& node, PageSet* pages) const {
  if (node.IsZero()) return Status::OK();
  if (!pages->insert(node).second) return Status::OK();
  auto loaded = LoadNode(store_.get(), node);
  if (!loaded.ok()) return loaded.status();
  Node& n = *loaded;
  if (n.type == Node::Type::kExt) return CollectRec(n.child, pages);
  if (n.type == Node::Type::kBranch) {
    for (const Hash& c : n.children) {
      if (c.IsZero()) continue;
      Status s = CollectRec(c, pages);
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

Status Mpt::CollectPages(const Hash& root, PageSet* pages) const {
  return CollectRec(root, pages);
}

// ---------------------------------------------------------------------------
// Diff
//
// Two tries over the same key space are structurally aligned by nibble
// position, but path compaction means the node boundaries may sit at
// different depths. VNode views a stored node at a nibble offset inside
// its compressed path so that both sides can be advanced one nibble at a
// time; equal (digest, offset) pairs prune entire shared subtrees.

struct Mpt::VNode {
  Hash origin;
  size_t offset = 0;  // nibbles of `node.path` already consumed
  Node node;
};

Result<Mpt::VNode> Mpt::LoadVNode(const Hash& h, size_t offset) const {
  auto loaded = LoadNode(store_.get(), h);
  if (!loaded.ok()) return loaded.status();
  VNode v;
  v.origin = h;
  v.offset = offset;
  v.node = std::move(*loaded);
  return v;
}

Result<std::optional<Mpt::VNode>> Mpt::DescendV(const VNode& v,
                                                uint8_t nibble) const {
  const Node& n = v.node;
  switch (n.type) {
    case Node::Type::kLeaf: {
      if (v.offset < n.path.size() && n.path[v.offset] == nibble) {
        VNode next = v;
        ++next.offset;
        return std::optional<VNode>{std::move(next)};
      }
      return std::optional<VNode>{};
    }
    case Node::Type::kExt: {
      if (v.offset < n.path.size()) {
        if (n.path[v.offset] != nibble) return std::optional<VNode>{};
        if (v.offset + 1 == n.path.size()) {
          auto child = LoadVNode(n.child, 0);
          if (!child.ok()) return child.status();
          return std::optional<VNode>{std::move(*child)};
        }
        VNode next = v;
        ++next.offset;
        return std::optional<VNode>{std::move(next)};
      }
      return Status::Corruption("extension exhausted");  // cannot happen
    }
    case Node::Type::kBranch: {
      if (n.children[nibble].IsZero()) return std::optional<VNode>{};
      auto child = LoadVNode(n.children[nibble], 0);
      if (!child.ok()) return child.status();
      return std::optional<VNode>{std::move(*child)};
    }
  }
  return Status::Corruption("unreachable");
}

Status Mpt::DiffRec(const std::optional<VNode>& a, const std::optional<VNode>& b,
                    Nibbles* prefix, DiffResult* out) const {
  if (!a && !b) return Status::OK();
  if (a && b && a->origin == b->origin && a->offset == b->offset) {
    return Status::OK();  // shared subtree
  }

  // Value terminating exactly at this position (if any) on each side.
  auto value_at = [](const std::optional<VNode>& v) -> const std::string* {
    if (!v) return nullptr;
    const Node& n = v->node;
    if (n.type == Node::Type::kLeaf && v->offset == n.path.size()) {
      return &n.value;
    }
    if (n.type == Node::Type::kBranch && n.has_value) return &n.value;
    return nullptr;
  };
  const std::string* va = value_at(a);
  const std::string* vb = value_at(b);
  if (va || vb) {
    if (!va || !vb || *va != *vb) {
      DiffEntry e;
      e.key = NibblesToKey(*prefix);
      if (va) e.left = *va;
      if (vb) e.right = *vb;
      out->push_back(std::move(e));
    }
  }

  // Fast path: leaf nodes are compared wholesale instead of nibble by
  // nibble (keys with the same length lie at the same level, as the paper
  // notes, so leaf-leaf encounters dominate the diff frontier).
  auto emit_record = [&](const VNode& v, bool left_side) {
    const Node& n = v.node;
    Nibbles full = *prefix;
    full.insert(full.end(), n.path.begin() + v.offset, n.path.end());
    DiffEntry e;
    e.key = NibblesToKey(full);
    if (left_side) {
      e.left = n.value;
    } else {
      e.right = n.value;
    }
    out->push_back(std::move(e));
  };
  const bool a_leaf = a && a->node.type == Node::Type::kLeaf;
  const bool b_leaf = b && b->node.type == Node::Type::kLeaf;
  if (a_leaf && b_leaf) {
    // va/vb (values at this exact position) were handled above; what is
    // left are the leaves' remaining paths.
    const Nibbles pa(a->node.path.begin() + a->offset, a->node.path.end());
    const Nibbles pb(b->node.path.begin() + b->offset, b->node.path.end());
    if (pa == pb) {
      if (!pa.empty() && a->node.value != b->node.value) {
        Nibbles full = *prefix;
        full.insert(full.end(), pa.begin(), pa.end());
        out->push_back(
            {NibblesToKey(full), a->node.value, b->node.value});
      }
      return Status::OK();
    }
    if (pa < pb) {
      if (!pa.empty()) emit_record(*a, true);
      if (!pb.empty()) emit_record(*b, false);
    } else {
      if (!pb.empty()) emit_record(*b, false);
      if (!pa.empty()) emit_record(*a, true);
    }
    // Order note: differing-path leaves share this node position, so both
    // keys extend *prefix and the pa/pb comparison yields key order.
    return Status::OK();
  }
  if (a_leaf && !b && a->offset < a->node.path.size()) {
    emit_record(*a, true);
    return Status::OK();
  }
  if (b_leaf && !a && b->offset < b->node.path.size()) {
    emit_record(*b, false);
    return Status::OK();
  }

  // Fast path: two branch nodes compare their children by digest, so a
  // shared child subtree costs zero loads — this is what keeps the MPT
  // diff proportional to the changed paths (§4.1.3).
  if (a && b && a->node.type == Node::Type::kBranch &&
      b->node.type == Node::Type::kBranch) {
    for (uint8_t nibble = 0; nibble < 16; ++nibble) {
      const Hash& ca = a->node.children[nibble];
      const Hash& cb = b->node.children[nibble];
      if (ca == cb) continue;  // shared (or both empty): skip unloaded
      std::optional<VNode> van, vbn;
      if (!ca.IsZero()) {
        auto r = LoadVNode(ca, 0);
        if (!r.ok()) return r.status();
        van = std::move(*r);
      }
      if (!cb.IsZero()) {
        auto r = LoadVNode(cb, 0);
        if (!r.ok()) return r.status();
        vbn = std::move(*r);
      }
      prefix->push_back(nibble);
      Status s = DiffRec(van, vbn, prefix, out);
      prefix->pop_back();
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  for (uint8_t nibble = 0; nibble < 16; ++nibble) {
    std::optional<VNode> ca, cb;
    if (a) {
      auto r = DescendV(*a, nibble);
      if (!r.ok()) return r.status();
      ca = std::move(*r);
    }
    if (b) {
      auto r = DescendV(*b, nibble);
      if (!r.ok()) return r.status();
      cb = std::move(*r);
    }
    if (!ca && !cb) continue;
    prefix->push_back(nibble);
    Status s = DiffRec(ca, cb, prefix, out);
    prefix->pop_back();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Result<DiffResult> Mpt::Diff(const Hash& a, const Hash& b) const {
  DiffResult out;
  if (a == b) return out;
  std::optional<VNode> va, vb;
  if (!a.IsZero()) {
    auto r = LoadVNode(a, 0);
    if (!r.ok()) return r.status();
    va = std::move(*r);
  }
  if (!b.IsZero()) {
    auto r = LoadVNode(b, 0);
    if (!r.ok()) return r.status();
    vb = std::move(*r);
  }
  Nibbles prefix;
  Status s = DiffRec(va, vb, &prefix, &out);
  if (!s.ok()) return s;
  return out;
}

std::unique_ptr<ImmutableIndex> Mpt::WithStore(NodeStorePtr store) const {
  return std::make_unique<Mpt>(std::move(store));
}

}  // namespace siri
