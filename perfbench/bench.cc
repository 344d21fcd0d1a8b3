// Copyright (c) 2026 The siri Authors. MIT license.

#include "perfbench/bench.h"

#include <sys/stat.h>

#include "index/mbt/mbt.h"
#include "index/mpt/mpt.h"
#include "index/mvmb/mvmb_tree.h"
#include "index/pos/pos_tree.h"

namespace perfbench {

using siri::Hash;
using siri::Result;
using siri::Status;

void Abort(const std::string& why) {
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  std::fflush(stderr);
  std::_Exit(3);
}

siri::MbtOptions ServerMbtOptions() {
  siri::MbtOptions opt;
  opt.num_buckets = 8192;
  opt.fanout = 32;
  return opt;
}

Deployment::Deployment(const std::string& dir, Tracer* tracer)
    : dir_(dir), tracer_(tracer) {
  siri::io::Env* env = siri::io::Env::Default();
  if (tracer_ != nullptr) {
    env_ = std::make_unique<TracingEnv>(env, tracer_);
    env = env_.get();
  }
  Status s = siri::FileNodeStore::Open(env, dir_ + "/pages.log", &store_);
  if (!s.ok()) Abort("open store: " + s.ToString());

  servlet_ = std::make_unique<siri::ForkbaseServlet>(store_);
  siri::RefLog::Options refs;
  refs.env = env;
  s = servlet_->branches()->AttachRefLog(dir_ + "/refs.log", refs);
  if (!s.ok()) Abort("attach ref log: " + s.ToString());

  std::vector<std::unique_ptr<siri::ImmutableIndex>> indexes;
  indexes.push_back(std::make_unique<siri::PosTree>(store_));
  indexes.push_back(std::make_unique<siri::Mbt>(store_, ServerMbtOptions()));
  indexes.push_back(std::make_unique<siri::Mpt>(store_));
  indexes.push_back(std::make_unique<siri::MvmbTree>(store_));
  for (auto& index : indexes) {
    if (tracer_ != nullptr) {
      index = std::make_unique<TracingIndex>(std::move(index), tracer_);
    }
    servlet_->RegisterIndex(std::move(index));
  }

  server_ = std::make_unique<siri::net::SiriServer>(servlet_.get(),
                                                    siri::net::ServerOptions{});
  s = server_->Listen(0);
  if (s.ok()) s = server_->Start();
  if (!s.ok()) Abort("server start: " + s.ToString());
}

Deployment::~Deployment() { Stop(); }

void Deployment::Stop() {
  if (stopped_) return;
  stopped_ = true;
  server_->Stop();
}

Client Deployment::Connect(uint64_t cache_bytes) {
  std::shared_ptr<siri::net::SocketTransport> socket;
  Status s = siri::net::SocketTransport::Connect("127.0.0.1", server_->port(),
                                                 &socket);
  if (!s.ok()) Abort("connect: " + s.ToString());
  Client c;
  c.transport = socket;
  if (tracer_ != nullptr) {
    c.transport = std::make_shared<TracingTransport>(socket, tracer_);
  }
  c.store = std::make_shared<siri::ForkbaseClientStore>(c.transport,
                                                        cache_bytes);
  return c;
}

uint64_t Deployment::DiskBytes() const {
  uint64_t total = 0;
  for (const char* name : {"/pages.log", "/refs.log"}) {
    struct stat st {};
    if (::stat((dir_ + name).c_str(), &st) == 0) {
      total += static_cast<uint64_t>(st.st_size);
    }
  }
  return total;
}

void Tally::Merge(const Tally& o) {
  auto cat = [](Samples* a, const Samples& b) {
    a->values.insert(a->values.end(), b.values.begin(), b.values.end());
    a->done_ns.insert(a->done_ns.end(), b.done_ns.begin(), b.done_ns.end());
  };
  cat(&commit_ms, o.commit_ms);
  cat(&read_us, o.read_us);
  cat(&diff_ms, o.diff_ms);
  cat(&merge_ms, o.merge_ms);
  attempted += o.attempted;
  failed += o.failed;
  publishes += o.publishes;
  user_bytes += o.user_bytes;
  lookups += o.lookups;
  lookup_nodes += o.lookup_nodes;
  lookup_bytes += o.lookup_bytes;
}

ClientSpans::ClientSpans(Tracer* t) : tracer(t) {
  auto id = [t](const char* name) { return t ? t->Intern(name) : 0u; };
  op_commit = id("op.commit");
  op_read = id("op.read");
  op_diff = id("op.diff");
  op_merge = id("op.merge");
  op_sync = id("op.sync");
  index_put_batch = id("index.put_batch");
  index_get = id("index.get");
  index_diff = id("index.diff");
  index_merge3 = id("index.merge3");
}

Result<Hash> RootOf(siri::NodeStore* store, const Hash& commit) {
  auto bytes = store->Get(commit);
  if (!bytes.ok()) return bytes.status();
  auto decoded = siri::Commit::Decode(**bytes);
  if (!decoded.ok()) return decoded.status();
  return decoded->root;
}

std::vector<Hash> EvenlySpaced(const std::vector<Hash>& versions,
                               size_t count) {
  if (versions.size() <= count) return versions;
  std::vector<Hash> out;
  for (size_t i = 0; i < count; ++i) {
    // i = count-1 lands exactly on the last version.
    out.push_back(versions[(versions.size() - 1) * i / (count - 1)]);
  }
  return out;
}

}  // namespace perfbench
