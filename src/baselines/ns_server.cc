#include "baselines/ns_server.h"

#include "baselines/proto.h"
#include "fs/path.h"
#include "fs/wire.h"

namespace loco::baselines {

using net::BadRequest;
using net::Fail;
using net::Ok;
using net::OkPayload;

net::RpcResponse NsServer::Handle(std::uint16_t opcode,
                                  std::string_view payload) {
  const common::ServerOpCounters::PerOp& m = op_metrics_.For(opcode);
  m.calls->Add();
  const kv::KvStats before = store_.kv().stats();
  net::RpcResponse resp = Dispatch(opcode, payload);
  if (resp.code != ErrCode::kOk) m.errors->Add();
  resp.extra_service_ns += store_.TakeJournalCost();
  if (options_.charge_io) {
    const kv::KvStats delta = store_.kv().stats() - before;
    resp.extra_service_ns += options_.io_device.Cost(delta.io_ops, delta.io_bytes);
  }
  return resp;
}

net::RpcResponse NsServer::Dispatch(std::uint16_t opcode,
                                    std::string_view payload) {
  switch (opcode) {
    case proto::kNsGet: {
      std::string path;
      if (!fs::Unpack(payload, path)) return BadRequest();
      auto attr = store_.Get(path);
      if (!attr.ok()) return Fail(attr.code());
      return OkPayload(fs::Pack(*attr));
    }

    case proto::kNsInsert: {
      std::uint8_t resolve = 0;
      std::string path;
      fs::Attr attr;
      fs::Identity who;
      if (!fs::Unpack(payload, resolve, path, attr, who)) return BadRequest();
      if (!fs::IsValidPath(path) || path == "/") return Fail(ErrCode::kInvalid);
      if (resolve != 0) {
        const Status st = store_.ResolveAcl(std::string(fs::ParentPath(path)),
                                            who, fs::kModeWrite | fs::kModeExec);
        if (!st.ok()) return Fail(st.code());
      }
      if (attr.uuid.raw() == 0) attr.uuid = store_.NextUuid();
      const Status st = store_.Insert(path, attr);
      if (!st.ok()) return Fail(st.code());
      return OkPayload(fs::Pack(attr));
    }

    case proto::kNsRemove: {
      std::uint8_t resolve = 0, expect_dir = 0, check_children = 0;
      std::string path;
      fs::Identity who;
      if (!fs::Unpack(payload, resolve, path, who, expect_dir, check_children)) {
        return BadRequest();
      }
      if (!fs::IsValidPath(path) || path == "/") return Fail(ErrCode::kInvalid);
      const std::string parent(fs::ParentPath(path));
      if (resolve != 0 && expect_dir == 0) {
        // unlink contract order: parent W|X before target existence.
        const Status st =
            store_.ResolveAcl(parent, who, fs::kModeWrite | fs::kModeExec);
        if (!st.ok()) return Fail(st.code());
      }
      if (resolve != 0 && expect_dir != 0) {
        // rmdir contract order: chain + existence first.
        const Status st = store_.ResolveAcl(path, who, 0);
        if (!st.ok()) return Fail(st.code());
      }
      auto attr = store_.Get(path);
      if (!attr.ok()) return Fail(attr.code());
      if (expect_dir != 0 && !attr->is_dir) return Fail(ErrCode::kNotDir);
      if (expect_dir == 0 && attr->is_dir) return Fail(ErrCode::kIsDir);
      if (check_children != 0 && store_.HasChildren(path)) {
        return Fail(ErrCode::kNotEmpty);
      }
      if (resolve != 0 && expect_dir != 0) {
        // rmdir: parent W after emptiness (contract order).
        auto pattr = store_.Get(parent);
        if (!pattr.ok()) return Fail(pattr.code());
        if (!fs::CheckPermission(who, pattr->mode, pattr->uid, pattr->gid,
                                 fs::kModeWrite)) {
          return Fail(ErrCode::kPermission);
        }
      }
      const Status st = store_.Remove(path);
      return st.ok() ? Ok() : Fail(st.code());
    }

    case proto::kNsChmod: {
      std::uint8_t resolve = 0;
      std::string path;
      fs::Identity who;
      std::uint32_t mode = 0;
      std::uint64_t ts = 0;
      if (!fs::Unpack(payload, resolve, path, who, mode, ts)) return BadRequest();
      if (resolve != 0 && path != "/") {
        const Status st = store_.ResolveAcl(std::string(fs::ParentPath(path)),
                                            who, fs::kModeExec);
        if (!st.ok()) return Fail(st.code());
      }
      const Status st = store_.Chmod(path, who, mode, ts);
      return st.ok() ? Ok() : Fail(st.code());
    }

    case proto::kNsChown: {
      std::uint8_t resolve = 0;
      std::string path;
      fs::Identity who;
      std::uint32_t uid = 0, gid = 0;
      std::uint64_t ts = 0;
      if (!fs::Unpack(payload, resolve, path, who, uid, gid, ts)) {
        return BadRequest();
      }
      if (resolve != 0 && path != "/") {
        const Status st = store_.ResolveAcl(std::string(fs::ParentPath(path)),
                                            who, fs::kModeExec);
        if (!st.ok()) return Fail(st.code());
      }
      const Status st = store_.Chown(path, who, uid, gid, ts);
      return st.ok() ? Ok() : Fail(st.code());
    }

    case proto::kNsUtimens: {
      std::uint8_t resolve = 0;
      std::string path;
      fs::Identity who;
      std::uint64_t mtime = 0, atime = 0;
      if (!fs::Unpack(payload, resolve, path, who, mtime, atime)) {
        return BadRequest();
      }
      if (resolve != 0 && path != "/") {
        const Status st = store_.ResolveAcl(std::string(fs::ParentPath(path)),
                                            who, fs::kModeExec);
        if (!st.ok()) return Fail(st.code());
      }
      const Status st = store_.Utimens(path, who, mtime, atime);
      return st.ok() ? Ok() : Fail(st.code());
    }

    case proto::kNsSetSize: {
      std::uint8_t resolve = 0, truncate = 0;
      std::string path;
      fs::Identity who;
      std::uint64_t end = 0, ts = 0;
      if (!fs::Unpack(payload, resolve, path, who, end, truncate, ts)) {
        return BadRequest();
      }
      if (resolve != 0) {
        const Status st = store_.ResolveAcl(std::string(fs::ParentPath(path)),
                                            who, fs::kModeExec);
        if (!st.ok()) return Fail(st.code());
      }
      auto result = store_.SetSize(path, who, end, truncate != 0, ts);
      if (!result.ok()) return Fail(result.code());
      return OkPayload(fs::Pack(result->first, result->second));
    }

    case proto::kNsSetAtime: {
      std::uint8_t resolve = 0;
      std::string path;
      fs::Identity who;
      std::uint64_t ts = 0;
      if (!fs::Unpack(payload, resolve, path, who, ts)) return BadRequest();
      if (resolve != 0) {
        const Status st = store_.ResolveAcl(std::string(fs::ParentPath(path)),
                                            who, fs::kModeExec);
        if (!st.ok()) return Fail(st.code());
      }
      auto result = store_.SetAtime(path, who, ts);
      if (!result.ok()) return Fail(result.code());
      return OkPayload(fs::Pack(result->first, result->second));
    }

    case proto::kNsChildren: {
      std::string path;
      if (!fs::Unpack(payload, path)) return BadRequest();
      auto entries = store_.Children(path);
      if (!entries.ok()) return Fail(entries.code());
      return OkPayload(fs::Pack(*entries));
    }

    case proto::kNsHasChildren: {
      std::string path;
      if (!fs::Unpack(payload, path)) return BadRequest();
      return store_.HasChildren(path) ? Fail(ErrCode::kNotEmpty) : Ok();
    }

    case proto::kNsResolve: {
      std::string path;
      fs::Identity who;
      std::uint32_t want = 0;
      if (!fs::Unpack(payload, path, who, want)) return BadRequest();
      const Status st = store_.ResolveAcl(path, who, want);
      if (!st.ok()) return Fail(st.code());
      auto attr = store_.Get(path);
      if (!attr.ok()) return Fail(attr.code());
      return OkPayload(fs::Pack(*attr));
    }

    case proto::kNsAccess: {
      std::uint8_t resolve = 0;
      std::string path;
      fs::Identity who;
      std::uint32_t want = 0;
      if (!fs::Unpack(payload, resolve, path, who, want)) return BadRequest();
      if (resolve != 0) {
        const Status st = store_.ResolveAcl(path, who, want);
        return st.ok() ? Ok() : Fail(st.code());
      }
      auto attr = store_.Get(path);
      if (!attr.ok()) return Fail(attr.code());
      if (!fs::CheckPermission(who, attr->mode, attr->uid, attr->gid, want)) {
        return Fail(ErrCode::kPermission);
      }
      return Ok();
    }

    case proto::kNsExtract: {
      std::string path;
      if (!fs::Unpack(payload, path)) return BadRequest();
      auto extracted = store_.Extract(path);
      common::Writer w;
      w.PutU32(static_cast<std::uint32_t>(extracted.size()));
      for (const auto& [p, attr] : extracted) {
        w.PutBytes(p);
        fs::EncodeAttr(w, attr);
      }
      return OkPayload(w.Take());
    }

    case proto::kNsLock: {
      std::string path;
      std::uint64_t owner = 0;
      if (!fs::Unpack(payload, path, owner)) return BadRequest();
      const Status st = store_.Lock(path, owner);
      return st.ok() ? Ok() : Fail(st.code());
    }

    case proto::kNsUnlock: {
      std::string path;
      std::uint64_t owner = 0;
      if (!fs::Unpack(payload, path, owner)) return BadRequest();
      (void)store_.Unlock(path, owner);
      return Ok();
    }

    default:
      return Fail(ErrCode::kUnsupported);
  }
}

}  // namespace loco::baselines
