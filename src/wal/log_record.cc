#include "src/wal/log_record.h"

#include "src/util/coding.h"

namespace soreorg {

void LogRecord::AppendTo(std::string* dst) const {
  dst->push_back(static_cast<char>(type));
  PutVarint64(dst, txn_id);
  PutVarint64(dst, prev_lsn);
  PutVarint64(dst, lsn2);
  PutVarint32(dst, page_id);
  PutVarint32(dst, page_id2);
  PutVarint32(dst, page_id3);
  PutVarint32(dst, unit);
  dst->push_back(static_cast<char>(unit_type));
  dst->push_back(static_cast<char>(flags));
  PutLengthPrefixedSlice(dst, key);
  PutLengthPrefixedSlice(dst, key2);
  PutLengthPrefixedSlice(dst, value);
  PutLengthPrefixedSlice(dst, value2);
  PutLengthPrefixedSlice(dst, payload);
}

size_t LogRecord::EncodedSize() const {
  std::string tmp;
  AppendTo(&tmp);
  return tmp.size();
}

Status LogRecord::Parse(Slice in, LogRecord* rec) {
  auto fail = [] { return Status::Corruption("bad log record"); };
  if (in.empty()) return fail();
  rec->type = static_cast<LogType>(in[0]);
  in.remove_prefix(1);
  uint64_t v64;
  uint32_t v32;
  if (!GetVarint64(&in, &v64)) return fail();
  rec->txn_id = v64;
  if (!GetVarint64(&in, &v64)) return fail();
  rec->prev_lsn = v64;
  if (!GetVarint64(&in, &v64)) return fail();
  rec->lsn2 = v64;
  if (!GetVarint32(&in, &v32)) return fail();
  rec->page_id = v32;
  if (!GetVarint32(&in, &v32)) return fail();
  rec->page_id2 = v32;
  if (!GetVarint32(&in, &v32)) return fail();
  rec->page_id3 = v32;
  if (!GetVarint32(&in, &v32)) return fail();
  rec->unit = v32;
  if (in.size() < 2) return fail();
  rec->unit_type = static_cast<uint8_t>(in[0]);
  rec->flags = static_cast<uint8_t>(in[1]);
  in.remove_prefix(2);
  Slice s;
  if (!GetLengthPrefixedSlice(&in, &s)) return fail();
  rec->key = s.ToString();
  if (!GetLengthPrefixedSlice(&in, &s)) return fail();
  rec->key2 = s.ToString();
  if (!GetLengthPrefixedSlice(&in, &s)) return fail();
  rec->value = s.ToString();
  if (!GetLengthPrefixedSlice(&in, &s)) return fail();
  rec->value2 = s.ToString();
  if (!GetLengthPrefixedSlice(&in, &s)) return fail();
  rec->payload = s.ToString();
  if (!in.empty()) return fail();
  return Status::OK();
}

std::string EncodePid(PageId pid) {
  std::string s;
  PutFixed32(&s, pid);
  return s;
}

PageId DecodePid(const Slice& s) {
  return s.size() == 4 ? DecodeFixed32(s.data()) : kInvalidPageId;
}

const char* LogTypeName(LogType t) {
  switch (t) {
    case LogType::kInvalid:
      return "INVALID";
    case LogType::kInsert:
      return "INSERT";
    case LogType::kDelete:
      return "DELETE";
    case LogType::kUpdate:
      return "UPDATE";
    case LogType::kClr:
      return "CLR";
    case LogType::kCommit:
      return "COMMIT";
    case LogType::kAbort:
      return "ABORT";
    case LogType::kAllocPage:
      return "ALLOC";
    case LogType::kDeallocPage:
      return "DEALLOC";
    case LogType::kFormatPage:
      return "FORMAT";
    case LogType::kLinkPage:
      return "LINK";
    case LogType::kReorgBegin:
      return "REORG_BEGIN";
    case LogType::kReorgMove:
      return "REORG_MOVE";
    case LogType::kReorgModify:
      return "REORG_MODIFY";
    case LogType::kReorgEnd:
      return "REORG_END";
    case LogType::kStableKey:
      return "STABLE_KEY";
    case LogType::kSideApply:
      return "SIDE_APPLY";
    case LogType::kTreeSwitch:
      return "TREE_SWITCH";
    case LogType::kCheckpoint:
      return "CHECKPOINT";
    case LogType::kRootChange:
      return "ROOT_CHANGE";
    case LogType::kLeafSplit:
      return "LEAF_SPLIT";
    case LogType::kInternalSplit:
      return "INTERNAL_SPLIT";
    case LogType::kNodeFree:
      return "NODE_FREE";
    case LogType::kSideInsert:
      return "SIDE_INSERT";
    case LogType::kSideCancel:
      return "SIDE_CANCEL";
  }
  return "?";
}

}  // namespace soreorg
