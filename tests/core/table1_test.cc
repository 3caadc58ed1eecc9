// Table 1 (paper §3.3): which metadata region each operation touches.
//
// Drives a single FMS directly and asserts, from per-store KV counters, that
// operations confine themselves to the regions Table 1 assigns them:
// access-only ops never touch the content store, content-only ops never
// *modify* the access store (a read for the ACL check is permitted), and
// only namespace ops touch the dirent store.  Also pins the decoupled-mode
// write amplification claim: a chmod patches 12 bytes, while the coupled
// configuration rewrites the whole serialized inode.
#include <gtest/gtest.h>

#include "core/fms.h"
#include "core/proto.h"
#include "fs/wire.h"

namespace loco::core {
namespace {

const fs::Identity kOwner{1000, 1000};
const fs::Uuid kDir = fs::Uuid::Make(0xfffe, 7);

class Table1Test : public ::testing::Test {
 protected:
  Table1Test() : fms_(MakeOptions()) {
    auto resp = fms_.Handle(proto::kFmsCreate,
                            fs::Pack(kDir, std::string("f"), 0644u, kOwner,
                                     std::uint64_t{1}));
    EXPECT_TRUE(resp.ok());
  }

  static FileMetadataServer::Options MakeOptions() {
    FileMetadataServer::Options options;
    options.sid = 1;
    options.decoupled = true;
    return options;
  }

  struct Deltas {
    kv::KvStats access;
    kv::KvStats content;
    kv::KvStats dirent;
  };

  // Run one op and report per-store counter deltas.
  Deltas Run(std::uint16_t opcode, std::string payload,
             ErrCode expect = ErrCode::kOk) {
    const kv::KvStats a0 = fms_.access_kv()->stats();
    const kv::KvStats c0 = fms_.content_kv()->stats();
    const kv::KvStats d0 = fms_.dirent_kv().stats();
    const net::RpcResponse resp = fms_.Handle(opcode, payload);
    EXPECT_EQ(resp.code, expect);
    return Deltas{fms_.access_kv()->stats() - a0,
                  fms_.content_kv()->stats() - c0,
                  fms_.dirent_kv().stats() - d0};
  }

  static std::uint64_t Writes(const kv::KvStats& s) {
    return s.puts + s.patches + s.deletes;
  }
  static std::uint64_t Touches(const kv::KvStats& s) {
    return s.gets + Writes(s) + s.scans;
  }

  FileMetadataServer fms_;
};

TEST_F(Table1Test, ChmodTouchesAccessOnly) {
  const Deltas d = Run(proto::kFmsChmod,
                       fs::Pack(kDir, std::string("f"), kOwner, 0600u,
                                std::uint64_t{2}));
  EXPECT_GT(Writes(d.access), 0u);
  EXPECT_EQ(Touches(d.content), 0u);
  EXPECT_EQ(Touches(d.dirent), 0u);
}

TEST_F(Table1Test, ChownTouchesAccessOnly) {
  const Deltas d = Run(proto::kFmsChown,
                       fs::Pack(kDir, std::string("f"), kOwner, 1000u, 55u,
                                std::uint64_t{2}));
  EXPECT_GT(Writes(d.access), 0u);
  EXPECT_EQ(Touches(d.content), 0u);
  EXPECT_EQ(Touches(d.dirent), 0u);
}

TEST_F(Table1Test, AccessCheckReadsAccessOnly) {
  const Deltas d = Run(proto::kFmsAccess,
                       fs::Pack(kDir, std::string("f"), kOwner,
                                std::uint32_t{fs::kModeRead}));
  EXPECT_GT(d.access.gets, 0u);
  EXPECT_EQ(Writes(d.access), 0u);
  EXPECT_EQ(Touches(d.content), 0u);
}

TEST_F(Table1Test, WriteUpdatesContentNeverModifiesAccess) {
  const Deltas d = Run(proto::kFmsSetSize,
                       fs::Pack(kDir, std::string("f"), kOwner,
                                std::uint64_t{4096}, std::uint8_t{0},
                                std::uint64_t{3}));
  EXPECT_GT(Writes(d.content), 0u);
  EXPECT_EQ(Writes(d.access), 0u);  // ACL read allowed; no modification
  EXPECT_EQ(Touches(d.dirent), 0u);
}

TEST_F(Table1Test, TruncateUpdatesContentOnly) {
  const Deltas d = Run(proto::kFmsSetSize,
                       fs::Pack(kDir, std::string("f"), kOwner,
                                std::uint64_t{0}, std::uint8_t{1},
                                std::uint64_t{3}));
  EXPECT_GT(Writes(d.content), 0u);
  EXPECT_EQ(Writes(d.access), 0u);
}

TEST_F(Table1Test, ReadUpdatesContentAtimeOnly) {
  const Deltas d = Run(proto::kFmsSetAtime,
                       fs::Pack(kDir, std::string("f"), kOwner,
                                std::uint64_t{4}));
  EXPECT_GT(d.content.patches, 0u);
  EXPECT_EQ(Writes(d.access), 0u);
}

TEST_F(Table1Test, GetattrReadsBothPartsWritesNeither) {
  const Deltas d = Run(proto::kFmsGetAttr, fs::Pack(kDir, std::string("f")));
  EXPECT_GT(d.access.gets, 0u);
  EXPECT_GT(d.content.gets, 0u);
  EXPECT_EQ(Writes(d.access) + Writes(d.content) + Writes(d.dirent), 0u);
}

TEST_F(Table1Test, CreateWritesBothPartsAndDirent) {
  const Deltas d = Run(proto::kFmsCreate,
                       fs::Pack(kDir, std::string("g"), 0644u, kOwner,
                                std::uint64_t{5}));
  EXPECT_GT(d.access.puts, 0u);
  EXPECT_GT(d.content.puts, 0u);
  EXPECT_GT(Writes(d.dirent), 0u);
}

TEST_F(Table1Test, RemoveDeletesBothPartsAndDirent) {
  const Deltas d = Run(proto::kFmsRemove,
                       fs::Pack(kDir, std::string("f"), kOwner));
  EXPECT_GT(d.access.deletes, 0u);
  EXPECT_GT(d.content.deletes, 0u);
  EXPECT_GT(Writes(d.dirent), 0u);
}

TEST_F(Table1Test, CreateAndRemoveWriteOneDirentRecord) {
  // One empty-valued record per entry: a create puts its key (8-byte dir
  // uuid + name) and reads nothing back; a remove deletes it.  No list
  // value is read, rewritten or logged, however big the directory.
  const Deltas c = Run(proto::kFmsCreate,
                       fs::Pack(kDir, std::string("g"), 0644u, kOwner,
                                std::uint64_t{5}));
  EXPECT_EQ(c.dirent.puts, 1u);
  EXPECT_EQ(c.dirent.bytes_written, 8u + 1u);
  EXPECT_EQ(c.dirent.gets + c.dirent.scans + c.dirent.deletes, 0u);
  const Deltas r = Run(proto::kFmsRemove,
                       fs::Pack(kDir, std::string("g"), kOwner));
  EXPECT_EQ(r.dirent.deletes, 1u);
  EXPECT_EQ(r.dirent.gets + r.dirent.scans + r.dirent.puts, 0u);
}

TEST_F(Table1Test, ReaddirTouchesDirentOnly) {
  const Deltas d = Run(proto::kFmsReaddir, fs::Pack(kDir));
  EXPECT_GT(Touches(d.dirent), 0u);
  EXPECT_EQ(Touches(d.access), 0u);
  EXPECT_EQ(Touches(d.content), 0u);
}

TEST_F(Table1Test, DecoupledChmodPatchesFewBytes) {
  const Deltas d = Run(proto::kFmsChmod,
                       fs::Pack(kDir, std::string("f"), kOwner, 0600u,
                                std::uint64_t{2}));
  // ctime + mode: exactly 12 bytes written, not the whole inode.
  EXPECT_EQ(d.access.bytes_written, 12u);
}

TEST(Table1CoupledTest, CoupledChmodRewritesWholeInode) {
  FileMetadataServer::Options options;
  options.sid = 1;
  options.decoupled = false;
  FileMetadataServer fms(options);
  ASSERT_TRUE(fms.Handle(proto::kFmsCreate,
                         fs::Pack(kDir, std::string("f"), 0644u, kOwner,
                                  std::uint64_t{1}))
                  .ok());
  const kv::KvStats before = fms.coupled_kv()->stats();
  ASSERT_TRUE(fms.Handle(proto::kFmsChmod,
                         fs::Pack(kDir, std::string("f"), kOwner, 0600u,
                                  std::uint64_t{2}))
                  .ok());
  const kv::KvStats d = fms.coupled_kv()->stats() - before;
  // Whole serialized inode read and re-put: far more than 12 bytes.
  EXPECT_GT(d.bytes_written, 50u);
  EXPECT_GT(d.bytes_read, 50u);
  EXPECT_EQ(d.puts, 1u);
}

}  // namespace
}  // namespace loco::core
