#include "reachgraph/stored_vertex.h"

namespace streach {

void EncodeVertex(VertexId id, const DnVertex& v, Encoder* enc,
                  RecordShape* shape) {
  size_t mark = enc->size();
  enc->PutU32(id);
  enc->PutI32(v.span.start);
  enc->PutI32(v.span.end);
  enc->PutVarint(v.members.size());
  shape->Bytes(enc->size() - mark);
  for (ObjectId o : v.members) enc->PutU32(o);
  shape->U32Delta(v.members.size());
  mark = enc->size();
  enc->PutVarint(v.out.size());
  shape->Bytes(enc->size() - mark);
  for (VertexId w : v.out) enc->PutU32(w);
  shape->U32Delta(v.out.size());
  mark = enc->size();
  enc->PutVarint(v.in.size());
  shape->Bytes(enc->size() - mark);
  for (VertexId w : v.in) enc->PutU32(w);
  shape->U32Delta(v.in.size());
  mark = enc->size();
  enc->PutVarint(v.long_out.size());
  for (const LongEdge& e : v.long_out) {
    enc->PutI32(e.anchor);
    enc->PutVarint(static_cast<uint64_t>(e.length));
    enc->PutU32(e.target);
  }
  shape->Bytes(enc->size() - mark);
}

Result<VertexView> DecodeStoredVertex(std::string_view blob, size_t offset,
                                      VertexId expected) {
  if (offset >= blob.size()) {
    return Status::Corruption("vertex offset outside its partition");
  }
  const std::string_view record = blob.substr(offset);
  Decoder dec(record);
  auto id = dec.GetU32();
  auto ts = dec.GetI32();
  auto te = dec.GetI32();
  if (!id.ok() || !ts.ok() || !te.ok()) {
    return Status::Corruption("vertex header");
  }
  if (*id != expected) {
    return Status::Corruption("vertex missing from its partition");
  }
  VertexView view;
  view.span = TimeInterval(*ts, *te);
  // A count is checked against the bytes left before the run is handed
  // out, so an inflated count is Corruption, never an over-read.
  auto id_run = [&](U32Run* run) -> Status {
    auto n = dec.GetVarint();
    if (!n.ok()) return n.status();
    if (*n > dec.remaining() / 4) {
      return Status::Corruption("vertex id run overruns its partition");
    }
    *run = U32Run(record.data() + dec.position(), *n);
    return dec.Skip(4 * *n);
  };
  STREACH_RETURN_NOT_OK(id_run(&view.members));
  STREACH_RETURN_NOT_OK(id_run(&view.out));
  STREACH_RETURN_NOT_OK(id_run(&view.in));
  auto nlong = dec.GetVarint();
  if (!nlong.ok()) return nlong.status();
  // An edge takes at least 9 bytes (i32, one-byte varint, u32).
  if (*nlong > dec.remaining() / 9) {
    return Status::Corruption("long-edge run overruns its partition");
  }
  const size_t begin = dec.position();
  for (uint64_t j = 0; j < *nlong; ++j) {
    auto anchor = dec.GetI32();
    auto length = dec.GetVarint();
    auto target = dec.GetU32();
    if (!anchor.ok() || !length.ok() || !target.ok()) {
      return Status::Corruption("long edge");
    }
  }
  view.long_out = LongEdgeRun(record.substr(begin, dec.position() - begin),
                              *nlong);
  return view;
}

}  // namespace streach
