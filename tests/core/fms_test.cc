// Direct handler-level tests of the File Metadata Server, parameterized
// over the decoupled (DF) and coupled (CF) storage modes: both must expose
// identical wire behaviour, differing only in storage cost profile.
#include "core/fms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "core/proto.h"
#include "fs/wire.h"
#include "net/wire.h"

namespace loco::core {
namespace {

const fs::Identity kAlice{1000, 1000};
const fs::Identity kBob{2000, 2000};
const fs::Uuid kDir = fs::Uuid::Make(0xfffe, 42);

class FmsModeTest : public ::testing::TestWithParam<bool /*decoupled*/> {
 protected:
  FmsModeTest() : fms_(MakeOptions(GetParam())) {}

  static FileMetadataServer::Options MakeOptions(bool decoupled) {
    FileMetadataServer::Options options;
    options.sid = 3;
    options.decoupled = decoupled;
    return options;
  }

  net::RpcResponse Create(const std::string& name, std::uint32_t mode = 0644,
                          fs::Identity who = kAlice, std::uint64_t ts = 1) {
    return fms_.Handle(proto::kFmsCreate, fs::Pack(kDir, name, mode, who, ts));
  }
  Result<fs::Attr> GetAttr(const std::string& name) {
    auto resp = fms_.Handle(proto::kFmsGetAttr, fs::Pack(kDir, name));
    if (!resp.ok()) return ErrStatus(resp.code);
    fs::Attr attr;
    if (!fs::Unpack(resp.payload, attr)) return ErrStatus(ErrCode::kCorruption);
    return attr;
  }

  FileMetadataServer fms_;
};

TEST_P(FmsModeTest, CreateGetRemoveLifecycle) {
  ASSERT_TRUE(Create("f", 0640, kAlice, 7).ok());
  EXPECT_EQ(Create("f").code, ErrCode::kExists);
  auto attr = GetAttr("f");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->mode, 0640u);
  EXPECT_EQ(attr->ctime, 7u);
  EXPECT_EQ(attr->uuid.sid(), 3u);
  EXPECT_EQ(attr->block_size, 4096u);
  EXPECT_FALSE(attr->is_dir);
  EXPECT_EQ(fms_.FileCount(), 1u);

  auto rm = fms_.Handle(proto::kFmsRemove, fs::Pack(kDir, std::string("f"),
                                                    kAlice));
  ASSERT_TRUE(rm.ok());
  fs::Uuid removed_uuid;
  ASSERT_TRUE(fs::Unpack(rm.payload, removed_uuid));
  EXPECT_EQ(removed_uuid, attr->uuid);
  EXPECT_EQ(GetAttr("f").code(), ErrCode::kNotFound);
  EXPECT_EQ(fms_.FileCount(), 0u);
}

TEST_P(FmsModeTest, UuidsMonotonePerServer) {
  ASSERT_TRUE(Create("a").ok());
  ASSERT_TRUE(Create("b").ok());
  EXPECT_LT(GetAttr("a")->uuid.fid(), GetAttr("b")->uuid.fid());
}

TEST_P(FmsModeTest, ChmodOwnershipRule) {
  ASSERT_TRUE(Create("f").ok());
  EXPECT_EQ(fms_.Handle(proto::kFmsChmod,
                        fs::Pack(kDir, std::string("f"), kBob, 0600u,
                                 std::uint64_t{2}))
                .code,
            ErrCode::kPermission);
  ASSERT_TRUE(fms_.Handle(proto::kFmsChmod,
                          fs::Pack(kDir, std::string("f"), kAlice, 0600u,
                                   std::uint64_t{2}))
                  .ok());
  EXPECT_EQ(GetAttr("f")->mode, 0600u);
  EXPECT_EQ(GetAttr("f")->ctime, 2u);
}

TEST_P(FmsModeTest, SetSizeGrowsAndTruncates) {
  ASSERT_TRUE(Create("f").ok());
  auto grow = fms_.Handle(proto::kFmsSetSize,
                          fs::Pack(kDir, std::string("f"), kAlice,
                                   std::uint64_t{500}, std::uint8_t{0},
                                   std::uint64_t{9}));
  ASSERT_TRUE(grow.ok());
  fs::Uuid uuid;
  std::uint64_t size = 0;
  ASSERT_TRUE(fs::Unpack(grow.payload, uuid, size));
  EXPECT_EQ(size, 500u);
  // Non-truncating write below EOF keeps the size (max semantics).
  auto keep = fms_.Handle(proto::kFmsSetSize,
                          fs::Pack(kDir, std::string("f"), kAlice,
                                   std::uint64_t{100}, std::uint8_t{0},
                                   std::uint64_t{10}));
  ASSERT_TRUE(fs::Unpack(keep.payload, uuid, size));
  EXPECT_EQ(size, 500u);
  // Truncate is exact.
  auto shrink = fms_.Handle(proto::kFmsSetSize,
                            fs::Pack(kDir, std::string("f"), kAlice,
                                     std::uint64_t{100}, std::uint8_t{1},
                                     std::uint64_t{11}));
  ASSERT_TRUE(fs::Unpack(shrink.payload, uuid, size));
  EXPECT_EQ(size, 100u);
  EXPECT_EQ(GetAttr("f")->mtime, 11u);
}

TEST_P(FmsModeTest, SetSizeRequiresWritePermission) {
  ASSERT_TRUE(Create("ro", 0444).ok());
  EXPECT_EQ(fms_.Handle(proto::kFmsSetSize,
                        fs::Pack(kDir, std::string("ro"), kAlice,
                                 std::uint64_t{10}, std::uint8_t{0},
                                 std::uint64_t{1}))
                .code,
            ErrCode::kPermission);
}

TEST_P(FmsModeTest, SetAtimeRequiresReadPermission) {
  ASSERT_TRUE(Create("wo", 0200).ok());
  EXPECT_EQ(fms_.Handle(proto::kFmsSetAtime,
                        fs::Pack(kDir, std::string("wo"), kAlice,
                                 std::uint64_t{5}))
                .code,
            ErrCode::kPermission);
  ASSERT_TRUE(Create("rw", 0600).ok());
  auto resp = fms_.Handle(proto::kFmsSetAtime,
                          fs::Pack(kDir, std::string("rw"), kAlice,
                                   std::uint64_t{5}));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(GetAttr("rw")->atime, 5u);
}

TEST_P(FmsModeTest, ReaddirAndCheckEmptyPerDirectory) {
  const fs::Uuid other = fs::Uuid::Make(0xfffe, 99);
  ASSERT_TRUE(Create("f1").ok());
  ASSERT_TRUE(Create("f2").ok());
  auto resp = fms_.Handle(proto::kFmsReaddir, fs::Pack(kDir));
  std::vector<fs::DirEntry> entries;
  ASSERT_TRUE(fs::Unpack(resp.payload, entries));
  EXPECT_EQ(entries.size(), 2u);
  EXPECT_EQ(fms_.Handle(proto::kFmsCheckEmpty, fs::Pack(kDir)).code,
            ErrCode::kNotEmpty);
  // A different directory uuid is empty on this server.
  EXPECT_TRUE(fms_.Handle(proto::kFmsCheckEmpty, fs::Pack(other)).ok());
  resp = fms_.Handle(proto::kFmsReaddir, fs::Pack(other));
  ASSERT_TRUE(fs::Unpack(resp.payload, entries));
  EXPECT_TRUE(entries.empty());
}

TEST_P(FmsModeTest, ReaddirRepliesInNameOrder) {
  const std::vector<std::string> order = {"m", "b", "zz", "a", "k", "ab"};
  for (const std::string& name : order) ASSERT_TRUE(Create(name).ok());
  std::vector<std::string> sorted = order;
  std::sort(sorted.begin(), sorted.end());

  auto resp = fms_.Handle(proto::kFmsReaddir, fs::Pack(kDir));
  std::vector<fs::DirEntry> entries;
  ASSERT_TRUE(fs::Unpack(resp.payload, entries));
  std::vector<std::string> listed;
  for (const auto& e : entries) {
    EXPECT_FALSE(e.is_dir);
    listed.push_back(e.name);
  }
  EXPECT_EQ(listed, sorted);

  resp = fms_.Handle(proto::kFmsReaddirPlus, fs::Pack(kDir));
  std::vector<net::wire::BatchItem> items;
  ASSERT_TRUE(net::wire::DecodeBatchResponse(resp.payload, &items));
  std::vector<std::string> plus;
  for (const auto& item : items) {
    std::string name;
    fs::Attr attr;
    ASSERT_TRUE(fs::Unpack(item.payload, name, attr));
    plus.push_back(name);
  }
  EXPECT_EQ(plus, sorted);
}

TEST_P(FmsModeTest, RawRelocationPreservesEverything) {
  ASSERT_TRUE(Create("src", 0640, kAlice, 3).ok());
  ASSERT_TRUE(fms_.Handle(proto::kFmsSetSize,
                          fs::Pack(kDir, std::string("src"), kAlice,
                                   std::uint64_t{777}, std::uint8_t{0},
                                   std::uint64_t{4}))
                  .ok());
  const fs::Attr before = *GetAttr("src");

  auto raw = fms_.Handle(proto::kFmsReadRaw, fs::Pack(kDir, std::string("src")));
  ASSERT_TRUE(raw.ok());
  std::string access, content;
  ASSERT_TRUE(fs::Unpack(raw.payload, access, content));

  const fs::Uuid dst_dir = fs::Uuid::Make(0xfffe, 7);
  ASSERT_TRUE(fms_.Handle(proto::kFmsInsertRaw,
                          fs::Pack(dst_dir, std::string("dst"), access, content))
                  .ok());
  ASSERT_TRUE(fms_.Handle(proto::kFmsRemove,
                          fs::Pack(kDir, std::string("src"), kAlice))
                  .ok());

  auto resp = fms_.Handle(proto::kFmsGetAttr, fs::Pack(dst_dir, std::string("dst")));
  ASSERT_TRUE(resp.ok());
  fs::Attr after;
  ASSERT_TRUE(fs::Unpack(resp.payload, after));
  EXPECT_EQ(after.uuid, before.uuid);  // §3.4.2: uuid never changes
  EXPECT_EQ(after.size, before.size);
  EXPECT_EQ(after.mode, before.mode);
  EXPECT_EQ(after.ctime, before.ctime);
}

TEST_P(FmsModeTest, OpenChecksReadPermission) {
  ASSERT_TRUE(Create("wo", 0200).ok());
  EXPECT_EQ(fms_.Handle(proto::kFmsOpen,
                        fs::Pack(kDir, std::string("wo"), kAlice))
                .code,
            ErrCode::kPermission);
}

TEST_P(FmsModeTest, MissingFilesReportNotFound) {
  for (std::uint16_t op : {proto::kFmsGetAttr, proto::kFmsReadRaw}) {
    EXPECT_EQ(fms_.Handle(op, fs::Pack(kDir, std::string("ghost"))).code,
              ErrCode::kNotFound)
        << op;
  }
  EXPECT_EQ(fms_.Handle(proto::kFmsRemove,
                        fs::Pack(kDir, std::string("ghost"), kAlice))
                .code,
            ErrCode::kNotFound);
}

TEST_P(FmsModeTest, BatchCreateAppliesEachSubOpIndependently) {
  std::vector<std::string> subops;
  subops.push_back(fs::Pack(kDir, std::string("a"), std::uint32_t{0644},
                            kAlice, std::uint64_t{1}));
  subops.push_back(fs::Pack(kDir, std::string("b"), std::uint32_t{0600},
                            kAlice, std::uint64_t{2}));
  subops.push_back(fs::Pack(kDir, std::string("a"), std::uint32_t{0644},
                            kAlice, std::uint64_t{3}));  // duplicate
  auto resp = fms_.Handle(proto::kFmsBatchCreate,
                          net::wire::EncodeBatchRequest(subops));
  ASSERT_TRUE(resp.ok());
  std::vector<net::wire::BatchItem> items;
  ASSERT_TRUE(net::wire::DecodeBatchResponse(resp.payload, &items));
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].code, ErrCode::kOk);
  EXPECT_EQ(items[1].code, ErrCode::kOk);
  EXPECT_EQ(items[2].code, ErrCode::kExists);
  fs::Uuid uuid;
  ASSERT_TRUE(fs::Unpack(items[0].payload, uuid));
  EXPECT_EQ(uuid.sid(), 3u);
  EXPECT_EQ(fms_.FileCount(), 2u);

  // Batched stat round-trips both survivors plus one per-entry miss.
  std::vector<std::string> stats;
  stats.push_back(fs::Pack(kDir, std::string("a")));
  stats.push_back(fs::Pack(kDir, std::string("ghost")));
  stats.push_back(fs::Pack(kDir, std::string("b")));
  resp = fms_.Handle(proto::kFmsBatchStat, net::wire::EncodeBatchRequest(stats));
  ASSERT_TRUE(resp.ok());
  ASSERT_TRUE(net::wire::DecodeBatchResponse(resp.payload, &items));
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].code, ErrCode::kOk);
  EXPECT_EQ(items[1].code, ErrCode::kNotFound);
  EXPECT_EQ(items[2].code, ErrCode::kOk);
  fs::Attr attr;
  ASSERT_TRUE(fs::Unpack(items[2].payload, attr));
  EXPECT_EQ(attr.mode, 0600u);
}

TEST_P(FmsModeTest, ReaddirPlusReturnsNamesWithAttrs) {
  ASSERT_TRUE(Create("x", 0640, kAlice, 5).ok());
  ASSERT_TRUE(Create("y", 0644, kAlice, 6).ok());
  auto resp = fms_.Handle(proto::kFmsReaddirPlus, fs::Pack(kDir));
  ASSERT_TRUE(resp.ok());
  std::vector<net::wire::BatchItem> items;
  ASSERT_TRUE(net::wire::DecodeBatchResponse(resp.payload, &items));
  ASSERT_EQ(items.size(), 2u);
  bool saw_x = false, saw_y = false;
  for (const net::wire::BatchItem& item : items) {
    ASSERT_EQ(item.code, ErrCode::kOk);
    std::string name;
    fs::Attr attr;
    ASSERT_TRUE(fs::Unpack(item.payload, name, attr));
    if (name == "x") {
      saw_x = true;
      EXPECT_EQ(attr.mode, 0640u);
    } else if (name == "y") {
      saw_y = true;
      EXPECT_EQ(attr.mode, 0644u);
    }
  }
  EXPECT_TRUE(saw_x);
  EXPECT_TRUE(saw_y);
}

TEST_P(FmsModeTest, MalformedBatchEnvelopeIsCorruption) {
  // Declared count far beyond what the bytes could hold.
  std::string hostile(4, '\0');
  hostile[0] = '\xff';
  hostile[1] = '\xff';
  hostile[2] = '\xff';
  hostile[3] = '\x7f';
  EXPECT_EQ(fms_.Handle(proto::kFmsBatchCreate, hostile).code,
            ErrCode::kCorruption);
  EXPECT_EQ(fms_.Handle(proto::kFmsBatchStat, hostile).code,
            ErrCode::kCorruption);

  // Truncated mid-item: count says 2 but the bytes hold 1.5 items.
  std::string truncated =
      net::wire::EncodeBatchRequest({fs::Pack(kDir, std::string("a")),
                                     fs::Pack(kDir, std::string("b"))});
  truncated.resize(truncated.size() - 3);
  EXPECT_EQ(fms_.Handle(proto::kFmsBatchStat, truncated).code,
            ErrCode::kCorruption);

  // Trailing garbage after the declared items.
  std::string oversized =
      net::wire::EncodeBatchRequest({fs::Pack(kDir, std::string("a"))});
  oversized += "junk";
  EXPECT_EQ(fms_.Handle(proto::kFmsBatchStat, oversized).code,
            ErrCode::kCorruption);
}

TEST_P(FmsModeTest, RetiredSessionOpcodesAreUnsupported) {
  // 61 and 62 opened and closed file sessions and 244 listed them.  The FMS
  // keeps no per-client state, so it answers them like any unknown opcode,
  // whether or not the peer said hello with a client id.
  ASSERT_TRUE(Create("f").ok());
  const net::HandlerContext identified{.client_id = 7};
  const std::pair<std::uint16_t, std::string> retired[] = {
      {61, fs::Pack(kDir, std::string("f"), std::uint8_t{0})},
      {62, fs::Pack(kDir, std::string("f"))},
      {244, std::string()},
  };
  for (const auto& [opcode, payload] : retired) {
    EXPECT_EQ(fms_.Handle(opcode, payload).code, ErrCode::kUnsupported)
        << opcode;
    EXPECT_EQ(fms_.HandleCtx(opcode, payload, identified).code,
              ErrCode::kUnsupported)
        << opcode;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, FmsModeTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "decoupled" : "coupled";
                         });

}  // namespace
}  // namespace loco::core
