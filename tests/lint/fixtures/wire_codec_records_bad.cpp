// The fixed-record codec of wire_codec_records_good.cpp with the record
// decoder skipping `depth`: encode_records writes two fields per record but
// decode_records' element decoder (its last template argument) reads one.
// The analyzer must compare the record codecs and report the mismatch.
#include <cstdint>
#include <vector>

struct Record {
  std::uint64_t id = 0;
  std::uint32_t depth = 0;
};

constexpr std::size_t kRecordBytes = 8 + 4;

void encode_record(RecordWriter& w, const Record& e) {
  w.u64(e.id);
  w.u32(e.depth);
}

Record decode_record(Reader& r) {
  Record e;
  e.id = r.u64();
  // BUG (deliberate): `depth` is never decoded.
  return e;
}

struct FetchRequestView;

struct FetchRequest {
  std::uint64_t root = 0;
  Bytes payload;
  std::vector<Record> dataset;

  void encode_into(Writer& w) const;
  static FetchRequest decode(const Bytes& b);
  static FetchRequestView decode_view(const Bytes& b);
};

void FetchRequest::encode_into(Writer& w) const {
  w.u64(root);
  w.blob(payload);
  encode_records<kRecordBytes>(w, dataset, encode_record);
}

FetchRequestView FetchRequest::decode_view(const Bytes& b) {
  Reader r(b);
  FetchRequestView v;
  v.root = r.u64();
  v.payload = r.blob_view();
  v.dataset = decode_records<kRecordBytes, Record, decode_record>(r);
  r.expect_done();
  return v;
}

FetchRequest FetchRequest::decode(const Bytes& b) {
  const FetchRequestView v = decode_view(b);
  FetchRequest req;
  req.root = v.root;
  req.payload = Bytes(v.payload.begin(), v.payload.end());
  for (std::size_t i = 0; i < v.dataset.size(); ++i) {
    req.dataset.push_back(v.dataset[i]);
  }
  return req;
}
