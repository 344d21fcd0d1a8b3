// Copyright (c) 2026 The siri Authors. MIT license.
//
// google-benchmark microbenchmarks for the substrates: SHA-256 digesting,
// rolling-hash throughput, node codec encode/decode, store puts/gets (in
// memory and through the disk-backed store's page cache), and
// per-structure point operations. These are not paper figures; they guard
// against substrate-level performance regressions.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/random.h"
#include "crypto/rolling_hash.h"
#include "crypto/sha256.h"
#include "crypto/sha256_internal.h"
#include "index/mbt/mbt.h"
#include "index/mpt/mpt.h"
#include "index/mvmb/mvmb_tree.h"
#include "index/ordered/node_codec.h"
#include "index/pos/pos_tree.h"
#include "store/file_store.h"
#include "store/node_store.h"
#include "workload/datasets.h"
#include "workload/ycsb.h"

namespace siri {
namespace {

// Sizes the workloads hash: 32 B (MBT bucket keys, record digests), 64 B,
// 532 B (an ETH tx value), 1 KiB, 3000 B (a Get response frame), 64 KiB.
void Sha256Sizes(benchmark::internal::Benchmark* b) {
  for (int64_t n : {32, 64, 532, 1024, 3000, 65536}) b->Arg(n);
}

// Through the dispatcher: whichever kernel this CPU runs, named in the label.
void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  const std::string data = rng.Bytes(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Digest(data));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
  state.SetLabel(Sha256::KernelName());
}
BENCHMARK(BM_Sha256)->Apply(Sha256Sizes);

// The portable kernel at the same sizes, with the same padding Finish()
// does, so the per-size dispatcher speedup reads off one run.
void BM_Sha256Portable(benchmark::State& state) {
  Rng rng(1);
  const std::string data = rng.Bytes(state.range(0));
  const auto* p = reinterpret_cast<const uint8_t*>(data.data());
  const size_t full = data.size() / 64;
  const size_t tail = data.size() % 64;
  for (auto _ : state) {
    uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                     0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    sha256_internal::CompressPortable(h, p, full);
    uint8_t last[128] = {};
    std::memcpy(last, p + full * 64, tail);
    last[tail] = 0x80;
    const size_t blocks = tail < 56 ? 1 : 2;
    const uint64_t bits = static_cast<uint64_t>(data.size()) * 8;
    for (int i = 0; i < 8; ++i) {
      last[blocks * 64 - 1 - i] = static_cast<uint8_t>(bits >> (8 * i));
    }
    sha256_internal::CompressPortable(h, last, blocks);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(state.iterations() * data.size());
  state.SetLabel("portable");
}
BENCHMARK(BM_Sha256Portable)->Apply(Sha256Sizes);

void BM_RollingHash(benchmark::State& state) {
  Rng rng(2);
  const std::string data = rng.Bytes(65536);
  RollingHash rh(48);
  for (auto _ : state) {
    uint64_t acc = 0;
    for (char c : data) acc ^= rh.Roll(static_cast<uint8_t>(c));
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_RollingHash);

void BM_LeafEncodeDecode(benchmark::State& state) {
  std::vector<KV> entries;
  Rng rng(3);
  for (int i = 0; i < 32; ++i) {
    entries.push_back(KV{rng.AlphaNum(12), rng.AlphaNum(256)});
  }
  std::sort(entries.begin(), entries.end(),
            [](const KV& a, const KV& b) { return a.key < b.key; });
  for (auto _ : state) {
    const std::string node = EncodeLeaf(entries);
    std::vector<KV> back;
    benchmark::DoNotOptimize(DecodeLeaf(node, &back));
  }
}
BENCHMARK(BM_LeafEncodeDecode);

void BM_StorePutGet(benchmark::State& state) {
  auto store = NewInMemoryNodeStore();
  Rng rng(4);
  std::vector<std::string> blobs;
  std::vector<Hash> hashes;
  for (int i = 0; i < 1024; ++i) {
    blobs.push_back(rng.Bytes(1024));
    hashes.push_back(store->Put(blobs.back()));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->Get(hashes[i++ % hashes.size()]));
  }
}
BENCHMARK(BM_StorePutGet);

// Get on the disk-backed store, ns per call, over 8 MiB of 1 KiB pages.
// /hit: every page cached. /miss: a cache 1/8 of the data, so about 7 in
// 8 Gets read the page from the log and re-digest it.
void BM_FileStoreGet(benchmark::State& state, uint64_t cache_divisor) {
  constexpr int kPages = 8192;
  constexpr size_t kPageBytes = 1024;
  constexpr uint64_t kDataBytes = uint64_t{kPages} * kPageBytes;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("siri_bm_file_store_" + std::to_string(getpid()) + ".log"))
          .string();
  std::remove(path.c_str());
  Rng rng(6);
  std::vector<Hash> hashes;
  {
    std::shared_ptr<FileNodeStore> writer;
    if (!FileNodeStore::Open(path, &writer).ok()) {
      state.SkipWithError("cannot open the page log");
      return;
    }
    NodeBatch batch;
    for (int i = 0; i < kPages; ++i) {
      NodeRecord rec;
      rec.bytes = std::make_shared<const std::string>(rng.Bytes(kPageBytes));
      rec.hash = Sha256::Digest(*rec.bytes);
      hashes.push_back(rec.hash);
      batch.push_back(std::move(rec));
    }
    writer->PutMany(batch);
    if (!writer->Flush().ok()) {
      state.SkipWithError("cannot flush the page log");
      return;
    }
  }
  const uint64_t cache_bytes =
      cache_divisor == 0 ? 2 * kDataBytes : kDataBytes / cache_divisor;
  std::shared_ptr<FileNodeStore> store;
  if (!FileNodeStore::Open(io::Env::Default(), path, &store, cache_bytes)
           .ok()) {
    state.SkipWithError("cannot reopen the page log");
    return;
  }
  for (const Hash& h : hashes) benchmark::DoNotOptimize(store->Get(h));
  const NodeCache::Stats before = store->page_cache_stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->Get(hashes[rng.Uniform(hashes.size())]));
  }
  const NodeCache::Stats after = store->page_cache_stats();
  const double lookups = static_cast<double>(after.hits + after.misses -
                                             before.hits - before.misses);
  state.counters["miss_ratio"] =
      lookups == 0 ? 0.0 : (after.misses - before.misses) / lookups;
  store.reset();
  std::remove(path.c_str());
}
BENCHMARK_CAPTURE(BM_FileStoreGet, hit, uint64_t{0});
BENCHMARK_CAPTURE(BM_FileStoreGet, miss, uint64_t{8});

template <typename MakeIndexFn>
void RunIndexGet(benchmark::State& state, MakeIndexFn make_index) {
  auto store = NewInMemoryNodeStore();
  auto index = make_index(store);
  YcsbGenerator gen(1);
  auto records = gen.GenerateRecords(state.range(0));
  Hash root = index->EmptyRoot();
  for (size_t i = 0; i < records.size(); i += 4000) {
    std::vector<KV> batch(
        records.begin() + i,
        records.begin() + std::min(i + 4000, records.size()));
    root = *index->PutBatch(root, batch);
  }
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index->Get(root, gen.KeyOf(rng.Uniform(records.size())), nullptr));
  }
}

void BM_PosGet(benchmark::State& state) {
  RunIndexGet(state, [](NodeStorePtr s) {
    return std::make_unique<PosTree>(std::move(s));
  });
}
BENCHMARK(BM_PosGet)->Arg(10000)->Arg(100000);

void BM_MbtGet(benchmark::State& state) {
  RunIndexGet(state, [](NodeStorePtr s) {
    return std::make_unique<Mbt>(std::move(s));
  });
}
BENCHMARK(BM_MbtGet)->Arg(10000)->Arg(100000);

void BM_MptGet(benchmark::State& state) {
  RunIndexGet(state, [](NodeStorePtr s) {
    return std::make_unique<Mpt>(std::move(s));
  });
}
BENCHMARK(BM_MptGet)->Arg(10000)->Arg(100000);

// One eth-ledger commit: a 200-transaction block (64 B hex keys, ~532 B
// values) applied to a 24k-key trie. Every iteration applies one of 16
// blocks to the same base root, so each measures the same commit shape.
// pages_written / bytes_written are what one batch hands the store to
// hash, upload and keep.
void BM_MptPutBatch(benchmark::State& state) {
  constexpr uint64_t kPreloadBlocks = 120;  // 120 x 200 = 24k keys
  constexpr uint64_t kBlocksPerLoad = 20;
  auto store = NewInMemoryNodeStore();
  Mpt mpt(store);
  EthDataset eth(1);
  Hash base = Hash::Zero();
  for (uint64_t b = 0; b < kPreloadBlocks; b += kBlocksPerLoad) {
    std::vector<KV> kvs;
    for (uint64_t i = b; i < b + kBlocksPerLoad; ++i) {
      for (KV& kv : eth.BlockRecords(i)) kvs.push_back(std::move(kv));
    }
    base = *mpt.PutBatch(base, std::move(kvs));
  }
  std::vector<std::vector<KV>> blocks;
  for (uint64_t i = 0; i < 16; ++i) {
    blocks.push_back(eth.BlockRecords(kPreloadBlocks + i));
  }
  const NodeStore::Stats before = store->stats();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mpt.PutBatch(base, blocks[i++ % blocks.size()]));
  }
  const NodeStore::Stats after = store->stats();
  state.counters["pages_written"] = benchmark::Counter(
      static_cast<double>(after.puts - before.puts),
      benchmark::Counter::kAvgIterations);
  state.counters["bytes_written"] = benchmark::Counter(
      static_cast<double>(after.put_bytes - before.put_bytes),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MptPutBatch)->Unit(benchmark::kMillisecond);

void BM_MvmbGet(benchmark::State& state) {
  RunIndexGet(state, [](NodeStorePtr s) {
    return std::make_unique<MvmbTree>(std::move(s));
  });
}
BENCHMARK(BM_MvmbGet)->Arg(10000)->Arg(100000);

void BM_PosPut(benchmark::State& state) {
  auto store = NewInMemoryNodeStore();
  PosTree tree(store);
  YcsbGenerator gen(1);
  auto records = gen.GenerateRecords(50000);
  Hash root = Hash::Zero();
  for (size_t i = 0; i < records.size(); i += 4000) {
    std::vector<KV> batch(
        records.begin() + i,
        records.begin() + std::min(i + 4000, records.size()));
    root = *tree.PutBatch(root, batch);
  }
  Rng rng(6);
  uint64_t version = 1;
  for (auto _ : state) {
    const uint64_t r = rng.Uniform(50000);
    root = *tree.Put(root, gen.KeyOf(r), gen.ValueOf(r, version++));
  }
}
BENCHMARK(BM_PosPut);

}  // namespace
}  // namespace siri

BENCHMARK_MAIN();
