// The binary capture container, proven by a round-trip/corruption battery:
//
//  * lossless text<->binary round trips (bit-identical both directions) for
//    one-shot captures and chunked streams, across the fault-plan seed set;
//  * decode identity: a binary container fed through the zero-copy SoA
//    reader — one-shot in every decode mode, and as randomly-rechunked
//    streams — fingerprints byte-identical to the text decode of the same
//    events;
//  * a corruption matrix with EXACT typed-anomaly accounting: flipped CRC,
//    destroyed chunk magic, oversized record count, bogus varint
//    continuation, torn tails (mid-header and mid-record), timestamps above
//    the timer mask;
//  * CLI behaviour: auto-detection, --salvage byte-offset diagnostics,
//    strict nonzero exits, --follow over binary streams (including a writer
//    caught mid-record), and hwprof_convert's lossless translation;
//  * one drop rule: a capture's header drops plus a nonzero chunk drop
//    reach every consumer (analyze, export, the loader, hwprofd, convert)
//    as one count in one gap;
//  * regressions for the text stream parser: mid-file salvage resync must
//    not masquerade as a torn tail, and a destroyed chunk header must not
//    bill the intact event lines behind it.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/analysis/decoder.h"
#include "src/analysis/export.h"
#include "src/base/crc32.h"
#include "src/base/mmap_file.h"
#include "src/base/rng.h"
#include "src/obs/telemetry.h"
#include "src/profhw/binary_trace.h"
#include "src/profhw/capture_reader.h"
#include "src/profhw/fault_injection.h"
#include "src/profhw/raw_trace.h"
#include "src/profhw/smart_socket.h"
#include "src/service/ingest.h"
#include "tests/trace_testutil.h"
#include "tools/analyze_main.h"
#include "tools/convert_main.h"
#include "tools/export_main.h"

namespace hwprof {
namespace {

// --- Decode-path helpers (the binary twins of fault_injection_test's) --------

DecodedTrace DecodeBinarySerial(const std::string& bytes, const TagFile& names,
                                bool salvage = false,
                                StreamingOptions keep = {.retain_structure = true}) {
  CaptureReader reader(bytes, salvage);
  HWPROF_CHECK(reader.header_ok());
  return StreamingDecoder(names, reader.timer_bits(), reader.timer_clock_hz(), keep)
      .DecodeAll(reader);
}

// The whole-input conversions over a CaptureReader, adding the salvage
// corrupt-word count to *corrupt_words (when non-null).
bool ReadCaptureBytes(std::string_view bytes, bool salvage, RawTrace* out,
                      std::vector<TraceDiag>* diags,
                      std::uint64_t* corrupt_words = nullptr) {
  CaptureReader reader(bytes, salvage);
  const bool ok = ReadCapture(reader, out, diags);
  if (ok && corrupt_words != nullptr) {
    *corrupt_words += reader.corrupt_words();
  }
  return ok;
}

bool ReadStreamBytes(std::string_view bytes, bool salvage, StreamCapture* out,
                     std::vector<TraceDiag>* diags,
                     std::uint64_t* corrupt_words = nullptr) {
  CaptureReader reader(bytes, salvage);
  const bool ok = ReadStream(reader, out, diags);
  if (ok && corrupt_words != nullptr) {
    *corrupt_words += reader.corrupt_words();
  }
  return ok;
}

// Splits `raw` into a stream of randomly-sized drained banks.
StreamCapture RandomChunking(const RawTrace& raw, std::uint64_t seed) {
  Rng rng(seed);
  StreamCapture stream;
  stream.timer_bits = raw.timer_bits;
  stream.timer_clock_hz = raw.timer_clock_hz;
  std::size_t at = 0;
  while (at < raw.events.size()) {
    const std::size_t n =
        std::min(raw.events.size() - at, std::size_t{1} + rng.NextBelow(97));
    TraceChunk chunk;
    chunk.events.assign(raw.events.begin() + at, raw.events.begin() + at + n);
    stream.chunks.push_back(std::move(chunk));
    at += n;
  }
  return stream;
}

// A small trace whose binary records are exactly 2 bytes each (tags and
// deltas all < 128), so torn-tail tests can pin how many records survive a
// cut at any byte count.
RawTrace TwoByteRecordTrace(std::size_t n) {
  RawTrace raw;
  std::uint32_t now = 0;
  for (std::size_t i = 0; i < n; ++i) {
    now += 3;
    raw.events.push_back(
        {static_cast<std::uint16_t>(i % 2 == 0 ? 100 : 101), now});
  }
  return raw;
}

std::size_t NthChunkOffset(const std::string& bytes, std::size_t n) {
  const char magic[4] = {
      static_cast<char>(kBinaryChunkMagic & 0xFF),
      static_cast<char>((kBinaryChunkMagic >> 8) & 0xFF),
      static_cast<char>((kBinaryChunkMagic >> 16) & 0xFF),
      static_cast<char>((kBinaryChunkMagic >> 24) & 0xFF)};
  std::size_t pos = kBinaryFileHeaderSize;
  for (std::size_t k = 0;; ++k) {
    pos = bytes.find(std::string(magic, 4), pos);
    HWPROF_CHECK(pos != std::string::npos);
    if (k == n) {
      return pos;
    }
    pos += 4;
  }
}

bool HasDiag(const std::vector<TraceDiag>& diags, const std::string& needle) {
  for (const TraceDiag& d : diags) {
    if (d.message.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

std::string WriteTempFile(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  HWPROF_CHECK(static_cast<bool>(out));
  return path;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  HWPROF_CHECK(static_cast<bool>(in));
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

int RunAnalyze(std::initializer_list<const char*> args, std::string* error) {
  std::vector<const char*> argv{"hwprof_analyze"};
  argv.insert(argv.end(), args.begin(), args.end());
  return AnalyzeMain(static_cast<int>(argv.size()), argv.data(), error);
}

int RunConvert(std::initializer_list<const char*> args, std::string* error) {
  std::vector<const char*> argv{"hwprof_convert"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ConvertMain(static_cast<int>(argv.size()), argv.data(), error);
}

std::string WriteNamesFile(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << "a/100\nb/102\nc/104\nd/106\nswtch/200!\nidle_swtch/202!\n"
         "MARK/300=\nPOINT/302=\n";
  return path;
}

// --- Round-trip fuzz ---------------------------------------------------------

class BinaryRoundTripFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BinaryRoundTripFuzzTest, CaptureTextBinaryTextIsBitIdentical) {
  const std::uint64_t seed = GetParam();
  RawTrace raw = FuzzTrace(seed, 500);
  // Vary every header field the container carries.
  if (seed % 4 == 1) {
    raw.dropped_events = 1 + seed % 17;
  }
  if (seed % 3 == 0) {
    raw.capture_elapsed_ns = 40'000'000'000ull;
  }
  const std::string text = raw.Serialize();
  const std::string bin = EncodeCaptureBinary(raw);

  RawTrace back;
  std::vector<TraceDiag> diags;
  ASSERT_TRUE(DecodeCaptureBinary(bin, &back, &diags))
      << "seed " << seed << ": " << (diags.empty() ? "" : diags[0].message);
  EXPECT_TRUE(diags.empty());
  EXPECT_EQ(back.Serialize(), text) << "seed " << seed;
  // And binary -> text -> binary reproduces the container bit-for-bit.
  EXPECT_EQ(EncodeCaptureBinary(back), bin) << "seed " << seed;
}

TEST_P(BinaryRoundTripFuzzTest, StreamTextBinaryTextIsBitIdentical) {
  const std::uint64_t seed = GetParam();
  const RawTrace raw = FuzzTrace(seed + 500, 400);
  StreamCapture stream = RandomChunking(raw, seed);
  // Drop counts on some banks: they must survive both directions.
  for (std::size_t i = 0; i < stream.chunks.size(); ++i) {
    if ((i + seed) % 3 == 0) {
      stream.chunks[i].dropped_before = 1 + (i * seed) % 9;
    }
  }
  const std::string text = SerializeStreamText(stream);
  const std::string bin = EncodeStreamBinary(stream);

  StreamCapture back;
  std::vector<TraceDiag> diags;
  ASSERT_TRUE(ReadStreamBytes(bin, /*salvage=*/false, &back, &diags)) << "seed " << seed;
  EXPECT_FALSE(back.truncated_tail);
  EXPECT_EQ(back.chunks.size(), stream.chunks.size());
  EXPECT_EQ(SerializeStreamText(back), text) << "seed " << seed;
  EXPECT_EQ(EncodeStreamBinary(back), bin) << "seed " << seed;
}

TEST_P(BinaryRoundTripFuzzTest, BinaryDecodeMatchesTextDecodeOnEveryPath) {
  const std::uint64_t seed = GetParam();
  const TagFile& names = MakeNames();
  RawTrace raw = FuzzTrace(seed, 600);
  if (seed % 4 == 1) {
    raw.dropped_events = 1 + seed % 17;
  }
  if (seed % 3 == 0) {
    raw.capture_elapsed_ns = 40'000'000'000ull;
  }
  const std::string bin = EncodeCaptureBinary(raw);
  const DecodedTrace text_decode = Decoder::Decode(raw, names);
  ExpectEveryModeAgrees(
      text_decode,
      [&](const StreamingOptions& keep) {
        return DecodeBinarySerial(bin, names, /*salvage=*/false, keep);
      },
      "binary, seed " + std::to_string(seed));

  // Chunked-stream path: the same events as a binary *stream* container with
  // seeded random bank boundaries (the stream header carries no
  // overflow/drop/envelope fields, so compare against a matching capture).
  RawTrace flat = raw;
  flat.overflowed = false;
  flat.dropped_events = 0;
  flat.capture_elapsed_ns = 0;
  const std::string flat_serial = Fingerprint(Decoder::Decode(flat, names));
  for (std::uint64_t chunk_seed : {1u, 77u}) {
    const std::string sbin =
        EncodeStreamBinary(RandomChunking(flat, chunk_seed));
    StreamCapture stream;
    ASSERT_TRUE(ReadStreamBytes(sbin, /*salvage=*/false, &stream, nullptr));
    StreamingDecoder decoder(names, stream.timer_bits, stream.timer_clock_hz,
                             StreamingOptions{.retain_structure = true});
    for (const TraceChunk& chunk : stream.chunks) {
      decoder.FeedChunk(chunk);
    }
    ASSERT_EQ(Fingerprint(decoder.Finish(false)), flat_serial)
        << "binary chunked, chunk_seed=" << chunk_seed << " seed " << seed;
  }
}

TEST_P(BinaryRoundTripFuzzTest, RandomBinaryDamageNeverCrashesAndSalvages) {
  const std::uint64_t seed = GetParam();
  const TagFile& names = MakeNames();
  const RawTrace clean = FuzzTrace(seed + 2000, 300);
  const std::string damaged = CorruptCaptureBinary(EncodeCaptureBinary(clean), seed);

  // Strict: either the damage missed every checked field, or it is reported
  // with byte-offset diagnostics.
  RawTrace strict;
  std::vector<TraceDiag> diags;
  if (!DecodeCaptureBinary(damaged, &strict, &diags)) {
    ASSERT_FALSE(diags.empty()) << "failure without a diagnostic, seed " << seed;
    for (const TraceDiag& d : diags) {
      EXPECT_FALSE(d.message.empty());
    }
  }

  // Salvage: the file header survives CorruptCaptureBinary by construction,
  // so salvage always produces a trace; whatever it recovered must decode
  // identically on every path.
  RawTrace salvaged;
  std::vector<TraceDiag> salvage_diags;
  std::uint64_t corrupt_words = 0;
  ASSERT_TRUE(ReadCaptureBytes(damaged, /*salvage=*/true, &salvaged, &salvage_diags,
                                         &corrupt_words))
      << "seed " << seed;
  auto decode = [&](const StreamingOptions& keep) {
    StreamingDecoder decoder(names, salvaged.timer_bits, salvaged.timer_clock_hz, keep);
    decoder.NoteCorruptWords(corrupt_words);
    decoder.NoteDropped(salvaged.dropped_events);
    decoder.SetClockEnvelope(salvaged.capture_elapsed_ns);
    decoder.Feed(salvaged.events);
    return decoder.Finish(salvaged.overflowed);
  };
  ExpectEveryModeAgrees(decode(StreamingOptions{.retain_structure = true}), decode,
                        "salvage, seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryRoundTripFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u, 11u, 12u, 13u, 14u, 15u, 16u,
                                           17u, 18u, 19u, 20u, 42u, 97u, 1993u,
                                           65537u));

// --- File-level auto-detection ----------------------------------------------

TEST(BinaryFormat, CaptureReaderIdentifiesAllFourShapes) {
  const RawTrace raw = TwoByteRecordTrace(4);
  const std::string tc = ::testing::TempDir() + "/det_tc";
  const std::string bc = ::testing::TempDir() + "/det_bc";
  const std::string ts = ::testing::TempDir() + "/det_ts";
  const std::string bs = ::testing::TempDir() + "/det_bs";
  ASSERT_TRUE(SaveCapture(raw, tc, CaptureFormat::kText));
  ASSERT_TRUE(SaveCapture(raw, bc, CaptureFormat::kBinary));
  ASSERT_TRUE(SaveStreamHeader(ts, 24, 1'000'000, CaptureFormat::kText));
  ASSERT_TRUE(SaveStreamHeader(bs, 24, 1'000'000, CaptureFormat::kBinary));

  struct Shape {
    const std::string& path;
    CaptureFormat format;
    bool stream;
  };
  for (const Shape& shape : {Shape{tc, CaptureFormat::kText, false},
                             Shape{bc, CaptureFormat::kBinary, false},
                             Shape{ts, CaptureFormat::kText, true},
                             Shape{bs, CaptureFormat::kBinary, true}}) {
    const std::string bytes = ReadWholeFile(shape.path);
    const CaptureReader reader(bytes, /*salvage=*/false);
    ASSERT_TRUE(reader.header_ok()) << shape.path;
    EXPECT_EQ(reader.format(), shape.format) << shape.path;
    EXPECT_EQ(reader.is_stream(), shape.stream) << shape.path;
  }

  MappedFile file;
  EXPECT_FALSE(OpenCaptureFile(::testing::TempDir() + "/det_missing", &file, nullptr));
  const CaptureReader junk("not a capture\n", /*salvage=*/false);
  EXPECT_FALSE(junk.header_ok());
  EXPECT_TRUE(junk.failed());
  ASSERT_FALSE(junk.diags().empty());
  EXPECT_EQ(junk.diags()[0].line, 1);
}

TEST(BinaryFormat, ReadersRefuseTheOtherKind) {
  const std::string capture = EncodeCaptureBinary(TwoByteRecordTrace(4));
  const std::string stream = EncodeStreamBinary(RandomChunking(TwoByteRecordTrace(6), 1));
  StreamCapture as_stream;
  std::vector<TraceDiag> diags;
  EXPECT_FALSE(ReadStreamBytes(capture, /*salvage=*/false, &as_stream, &diags));
  EXPECT_TRUE(HasDiag(diags, "capture container where a stream was expected"));
  RawTrace as_capture;
  diags.clear();
  EXPECT_FALSE(ReadCaptureBytes(stream, /*salvage=*/true, &as_capture, &diags));
  EXPECT_TRUE(HasDiag(diags, "stream container where a capture was expected"));
  diags.clear();
  EXPECT_FALSE(ReadCaptureBytes("hwprof-stream v1 24 1000000\n", /*salvage=*/false,
                                &as_capture, &diags));
  EXPECT_TRUE(HasDiag(diags, "stream file where a capture was expected"));
}

TEST(BinaryFormat, SaveAndLoadAutoDetectBothFormats) {
  RawTrace raw = FuzzTrace(7, 300);
  raw.dropped_events = 3;
  for (const CaptureFormat format :
       {CaptureFormat::kText, CaptureFormat::kBinary}) {
    const std::string path =
        ::testing::TempDir() +
        (format == CaptureFormat::kBinary ? "/auto.hwpb" : "/auto.hwprof");
    ASSERT_TRUE(SaveCapture(raw, path, format));
    RawTrace back;
    ASSERT_TRUE(LoadCapture(path, &back));
    EXPECT_EQ(back.events, raw.events);
    EXPECT_EQ(back.dropped_events, raw.dropped_events);
    EXPECT_EQ(back.timer_bits, raw.timer_bits);
    EXPECT_EQ(back.overflowed, raw.overflowed);
  }
}

TEST(BinaryFormat, StreamAppendMatchesTheHeadersFormat) {
  TraceChunk first;
  first.events = {{100, 10}, {101, 20}};
  TraceChunk second;
  second.events = {{102, 30}};
  second.dropped_before = 4;
  for (const CaptureFormat format :
       {CaptureFormat::kText, CaptureFormat::kBinary}) {
    const std::string path =
        ::testing::TempDir() +
        (format == CaptureFormat::kBinary ? "/app.hwpb" : "/app.hwstream");
    ASSERT_TRUE(SaveStreamHeader(path, 24, 1'000'000, format));
    ASSERT_TRUE(AppendStreamChunk(path, first));
    ASSERT_TRUE(AppendStreamChunk(path, second));
    StreamCapture stream;
    ASSERT_TRUE(LoadStream(path, &stream));
    ASSERT_EQ(stream.chunks.size(), 2u);
    EXPECT_EQ(stream.chunks[0].events, first.events);
    EXPECT_EQ(stream.chunks[1].events, second.events);
    EXPECT_EQ(stream.chunks[1].dropped_before, 4u);
    EXPECT_FALSE(stream.truncated_tail);
  }
}

// --- Corruption matrix: exact typed-anomaly accounting -----------------------

// A three-bank stream with known record counts (3, 2, 4) and 2-byte records.
StreamCapture MatrixStream() {
  StreamCapture stream;
  std::uint32_t now = 0;
  const std::size_t counts[3] = {3, 2, 4};
  for (std::size_t c = 0; c < 3; ++c) {
    TraceChunk chunk;
    for (std::size_t i = 0; i < counts[c]; ++i) {
      now += 5;
      chunk.events.push_back(
          {static_cast<std::uint16_t>(i % 2 == 0 ? 100 : 101), now});
    }
    if (c == 1) {
      chunk.dropped_before = 6;
    }
    stream.chunks.push_back(std::move(chunk));
  }
  return stream;
}

TEST(BinaryCorruptionMatrix, FlippedCrcLosesExactlyThatChunk) {
  const std::string bin = EncodeStreamBinary(MatrixStream());
  const std::string damaged = FlipChunkCrcByte(bin, 1);
  ASSERT_NE(damaged, bin);

  StreamCapture strict;
  std::vector<TraceDiag> diags;
  EXPECT_FALSE(ReadStreamBytes(damaged, /*salvage=*/false, &strict, &diags));
  EXPECT_TRUE(HasDiag(diags, "CRC mismatch"));

  StreamCapture salvaged;
  diags.clear();
  std::uint64_t corrupt = 0;
  ASSERT_TRUE(ReadStreamBytes(damaged, /*salvage=*/true, &salvaged, &diags, &corrupt));
  EXPECT_EQ(corrupt, 2u);  // bank 1 held exactly 2 records
  ASSERT_EQ(salvaged.chunks.size(), 2u);
  EXPECT_EQ(salvaged.chunks[0].events.size(), 3u);
  EXPECT_EQ(salvaged.chunks[1].events.size(), 4u);
  EXPECT_FALSE(salvaged.truncated_tail);
  EXPECT_TRUE(HasDiag(diags, "CRC mismatch"));
  EXPECT_TRUE(HasDiag(diags, "resynchronised"));
}

TEST(BinaryCorruptionMatrix, OversizedRecordCountIsOneCorruptWordThenResync) {
  const std::string bin = EncodeStreamBinary(MatrixStream());
  const std::string damaged = OversizeRecordCount(bin, 0);
  ASSERT_NE(damaged, bin);

  StreamCapture strict;
  std::vector<TraceDiag> diags;
  EXPECT_FALSE(ReadStreamBytes(damaged, /*salvage=*/false, &strict, &diags));
  EXPECT_TRUE(HasDiag(diags, "impossible record count"));

  StreamCapture salvaged;
  diags.clear();
  std::uint64_t corrupt = 0;
  ASSERT_TRUE(ReadStreamBytes(damaged, /*salvage=*/true, &salvaged, &diags, &corrupt));
  EXPECT_EQ(corrupt, 1u);  // the damaged header, not the unverifiable payload
  ASSERT_EQ(salvaged.chunks.size(), 2u);
  EXPECT_EQ(salvaged.chunks[0].events.size(), 2u);
  EXPECT_EQ(salvaged.chunks[0].dropped_before, 6u);
  EXPECT_EQ(salvaged.chunks[1].events.size(), 4u);
  EXPECT_TRUE(HasDiag(diags, "resynchronised"));
}

TEST(BinaryCorruptionMatrix, BogusVarintLosesTheRecordsButNeedsNoRescan) {
  const std::string bin = EncodeStreamBinary(MatrixStream());
  const std::string damaged = BreakVarintInChunk(bin, 2);
  ASSERT_NE(damaged, bin);

  StreamCapture strict;
  std::vector<TraceDiag> diags;
  EXPECT_FALSE(ReadStreamBytes(damaged, /*salvage=*/false, &strict, &diags));
  EXPECT_TRUE(HasDiag(diags, "damaged record encoding"));

  StreamCapture salvaged;
  diags.clear();
  std::uint64_t corrupt = 0;
  ASSERT_TRUE(ReadStreamBytes(damaged, /*salvage=*/true, &salvaged, &diags, &corrupt));
  EXPECT_EQ(corrupt, 4u);  // all of bank 2's records
  ASSERT_EQ(salvaged.chunks.size(), 3u);
  EXPECT_EQ(salvaged.chunks[2].events.size(), 0u);
  // The payload length was trusted (its CRC passed), so decoding continued
  // at the payload end without scanning.
  EXPECT_FALSE(HasDiag(diags, "resynchronised"));
}

TEST(BinaryCorruptionMatrix, DestroyedChunkMagicIsOneCorruptWordThenResync) {
  const std::string bin = EncodeStreamBinary(MatrixStream());
  std::string damaged = bin;
  const std::size_t off = NthChunkOffset(bin, 1);
  damaged[off] = static_cast<char>(damaged[off] ^ 0x55);

  StreamCapture salvaged;
  std::vector<TraceDiag> diags;
  std::uint64_t corrupt = 0;
  ASSERT_TRUE(ReadStreamBytes(damaged, /*salvage=*/true, &salvaged, &diags, &corrupt));
  EXPECT_EQ(corrupt, 1u);
  ASSERT_EQ(salvaged.chunks.size(), 2u);
  EXPECT_EQ(salvaged.chunks[0].events.size(), 3u);
  EXPECT_EQ(salvaged.chunks[1].events.size(), 4u);
  EXPECT_TRUE(HasDiag(diags, "expected a chunk header"));
  EXPECT_TRUE(HasDiag(diags, "resynchronised"));
}

TEST(BinaryCorruptionMatrix, TornTailMidHeaderAndMidRecord) {
  const std::string bin = EncodeStreamBinary(MatrixStream());
  const std::size_t last = NthChunkOffset(bin, 2);

  // Torn mid-header: the final bank vanishes; everything before it stands.
  {
    StreamCapture stream;
    std::vector<TraceDiag> diags;
    ASSERT_TRUE(
        ReadStreamBytes(bin.substr(0, last + 7), /*salvage=*/false, &stream, &diags));
    EXPECT_TRUE(stream.truncated_tail);
    ASSERT_EQ(stream.chunks.size(), 2u);
  }
  // Torn mid-record (2-byte records; an odd payload byte count cuts one in
  // half): complete records of the final bank survive, tail flagged, in
  // strict AND salvage modes — the writer may simply still be appending.
  {
    const std::string torn = TruncateChunkPayload(bin, 2, 5);
    StreamCapture stream;
    ASSERT_TRUE(ReadStreamBytes(torn, /*salvage=*/false, &stream, nullptr));
    EXPECT_TRUE(stream.truncated_tail);
    ASSERT_EQ(stream.chunks.size(), 3u);
    EXPECT_EQ(stream.chunks[2].events.size(), 2u);  // 5 bytes = 2.5 records

    StreamCapture salvage_stream;
    std::uint64_t corrupt = 0;
    ASSERT_TRUE(ReadStreamBytes(torn, /*salvage=*/true, &salvage_stream, nullptr,
                                          &corrupt));
    EXPECT_TRUE(salvage_stream.truncated_tail);
    EXPECT_EQ(corrupt, 0u);
  }
}

TEST(BinaryCorruptionMatrix, CaptureTornTailIsStrictFailureSalvageCountsIt) {
  const RawTrace raw = TwoByteRecordTrace(10);
  const std::string bin = EncodeCaptureBinary(raw);
  const std::string torn = TruncateChunkPayload(bin, 0, 7);  // 3.5 records

  RawTrace strict;
  std::vector<TraceDiag> diags;
  EXPECT_FALSE(DecodeCaptureBinary(torn, &strict, &diags));
  EXPECT_TRUE(HasDiag(diags, "torn chunk payload"));

  RawTrace salvaged;
  diags.clear();
  std::uint64_t corrupt = 0;
  ASSERT_TRUE(ReadCaptureBytes(torn, /*salvage=*/true, &salvaged, &diags, &corrupt));
  EXPECT_EQ(salvaged.events.size(), 3u);
  EXPECT_EQ(corrupt, 7u);  // 10 promised, 3 decoded
}

TEST(BinaryCorruptionMatrix, TimestampAboveTheTimerMaskIsACorruptWord) {
  RawTrace raw = TwoByteRecordTrace(4);
  raw.events[2].timestamp = (1u << 24) + 9;  // above the 24-bit mask
  const std::string bin = EncodeCaptureBinary(raw);

  RawTrace strict;
  std::vector<TraceDiag> diags;
  EXPECT_FALSE(DecodeCaptureBinary(bin, &strict, &diags));
  EXPECT_TRUE(HasDiag(diags, "exceeds the 24-bit timer mask"));

  RawTrace salvaged;
  std::uint64_t corrupt = 0;
  ASSERT_TRUE(ReadCaptureBytes(bin, /*salvage=*/true, &salvaged, nullptr, &corrupt));
  EXPECT_EQ(corrupt, 1u);
  ASSERT_EQ(salvaged.events.size(), 3u);  // the impossible record is dropped
  EXPECT_EQ(salvaged.events[2], raw.events[3]);
}

// --- CLI: diagnostics, exits, --follow, convert ------------------------------

TEST(BinaryCli, StrictLoadFailsWithByteOffsetDiagnostics) {
  const RawTrace raw = TwoByteRecordTrace(6);
  const std::string damaged = FlipChunkCrcByte(EncodeCaptureBinary(raw), 0);
  const std::string capture = WriteTempFile("bincli_bad.hwpb", damaged);
  const std::string names = WriteNamesFile("bincli_bad.names");

  std::string error;
  EXPECT_NE(RunAnalyze({capture.c_str(), names.c_str(), "--summary", "5"},
                       &error),
            0);
  EXPECT_NE(error.find("cannot load capture"), std::string::npos) << error;
  // The CRC field of the first chunk sits at byte 40 + 20.
  EXPECT_NE(error.find(":60:"), std::string::npos) << error;
  EXPECT_NE(error.find("CRC mismatch"), std::string::npos) << error;
}

TEST(BinaryCli, SalvageDecodesAndReportsTheDamage) {
  const RawTrace raw = TwoByteRecordTrace(6);
  const std::string damaged = FlipChunkCrcByte(EncodeCaptureBinary(raw), 0);
  const std::string capture = WriteTempFile("bincli_salvage.hwpb", damaged);
  const std::string names = WriteNamesFile("bincli_salvage.names");

  std::string error;
  ::testing::internal::CaptureStdout();
  const int rc = RunAnalyze(
      {capture.c_str(), names.c_str(), "--salvage", "--summary", "5"}, &error);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0) << error;
  EXPECT_NE(out.find("(salvaged)"), std::string::npos) << out;
  EXPECT_NE(out.find("corrupt words"), std::string::npos) << out;
}

TEST(BinaryCli, JsonIsByteIdenticalAcrossFormatsAndJobCounts) {
  Rng rng(11);
  RawTrace raw = FuzzTrace(11, 800);
  const std::string text_path =
      WriteTempFile("bincli_json.hwprof", raw.Serialize());
  const std::string bin_path =
      WriteTempFile("bincli_json.hwpb", EncodeCaptureBinary(raw));
  const std::string names = WriteNamesFile("bincli_json.names");

  auto json = [&](const std::string& capture, const char* jobs) {
    std::string error;
    ::testing::internal::CaptureStdout();
    const int rc = RunAnalyze(
        {capture.c_str(), names.c_str(), "--json", "--jobs", jobs}, &error);
    std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_EQ(rc, 0) << error;
    return out;
  };
  const std::string reference = json(text_path, "1");
  EXPECT_EQ(json(bin_path, "1"), reference);
  EXPECT_EQ(json(bin_path, "8"), reference);
}

TEST(BinaryCli, FollowReadsABinaryStreamAndToleratesAMidRecordTear) {
  const std::string stream = ::testing::TempDir() + "/bincli_follow.hwpb";
  const std::string names = WriteNamesFile("bincli_follow.names");
  ASSERT_TRUE(SaveStreamHeader(stream, 24, 1'000'000, CaptureFormat::kBinary));
  TraceChunk first;
  first.events = {{100, 10}, {102, 20}, {103, 60}, {101, 90}};
  ASSERT_TRUE(AppendStreamChunk(stream, first));

  std::string error;
  ::testing::internal::CaptureStdout();
  int rc = RunAnalyze({stream.c_str(), names.c_str(), "--follow", "--summary",
                       "5"},
                      &error);
  std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0) << error;
  EXPECT_NE(out.find("end of stream: 1 chunks"), std::string::npos) << out;

  // A writer dies mid-record: append only part of the next bank's bytes.
  TraceChunk second;
  second.events = {{100, 120}, {101, 150}, {100, 180}};
  const std::string block = EncodeStreamChunkBinary(second);
  {
    std::ofstream app(stream, std::ios::app | std::ios::binary);
    // Chunk header (24) plus 3 payload bytes: one complete 2-byte record
    // and half of the next.
    app.write(block.data(), 24 + 3);
  }
  error.clear();
  ::testing::internal::CaptureStdout();
  rc = RunAnalyze({stream.c_str(), names.c_str(), "--follow", "--summary", "5"},
                  &error);
  out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0) << error;
  EXPECT_NE(out.find("(truncated tail)"), std::string::npos) << out;
}

TEST(BinaryCli, FollowReportsBinaryCorruptionUnlessSalvaging) {
  const std::string stream = ::testing::TempDir() + "/bincli_fcorrupt.hwpb";
  const std::string names = WriteNamesFile("bincli_fcorrupt.names");
  ASSERT_TRUE(SaveStreamHeader(stream, 24, 1'000'000, CaptureFormat::kBinary));
  TraceChunk first;
  first.events = {{100, 10}, {101, 50}};
  TraceChunk second;
  second.events = {{100, 80}, {101, 110}};
  ASSERT_TRUE(AppendStreamChunk(stream, first));
  ASSERT_TRUE(AppendStreamChunk(stream, second));
  const std::string damaged = FlipChunkCrcByte(ReadWholeFile(stream), 0);
  std::ofstream(stream, std::ios::trunc | std::ios::binary)
      .write(damaged.data(), static_cast<std::streamsize>(damaged.size()));

  std::string error;
  EXPECT_NE(RunAnalyze({stream.c_str(), names.c_str(), "--follow"}, &error), 0);
  EXPECT_NE(error.find("cannot load stream"), std::string::npos) << error;

  error.clear();
  ::testing::internal::CaptureStdout();
  const int rc = RunAnalyze({stream.c_str(), names.c_str(), "--follow",
                             "--salvage", "--summary", "5"},
                            &error);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0) << error;
  EXPECT_NE(out.find("corrupt words"), std::string::npos) << out;
}

TEST(ConvertCli, TranslatesLosslesslyInBothDirections) {
  RawTrace raw = FuzzTrace(13, 400);
  raw.dropped_events = 5;
  const std::string text_path =
      WriteTempFile("conv_in.hwprof", raw.Serialize());
  const std::string bin_path = ::testing::TempDir() + "/conv_out.hwpb";
  const std::string back_path = ::testing::TempDir() + "/conv_back.hwprof";

  std::string error;
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunConvert({text_path.c_str(), bin_path.c_str()}, &error), 0)
      << error;
  const std::string summary = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(summary.find("text capture -> binary"), std::string::npos);
  EXPECT_EQ(ReadWholeFile(bin_path), EncodeCaptureBinary(raw));

  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunConvert({bin_path.c_str(), back_path.c_str()}, &error), 0)
      << error;
  ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(ReadWholeFile(back_path), raw.Serialize());

  // --to the same format is an idempotent (canonicalising) copy.
  const std::string same_path = ::testing::TempDir() + "/conv_same.hwprof";
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunConvert({text_path.c_str(), same_path.c_str(), "--to", "text"},
                       &error),
            0)
      << error;
  ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(ReadWholeFile(same_path), raw.Serialize());
}

TEST(ConvertCli, RefusesJunkAndTornStreams) {
  std::string error;
  const std::string junk = WriteTempFile("conv_junk", "what even is this\n");
  EXPECT_NE(RunConvert({junk.c_str(), "/tmp/never"}, &error), 0);
  EXPECT_NE(error.find("cannot identify"), std::string::npos) << error;

  // A torn stream must not be silently "converted" into a clean one.
  const std::string torn = WriteTempFile(
      "conv_torn.hwstream", "hwprof-stream v1 24 1000000\nchunk 2 0\n100 10\n10");
  error.clear();
  EXPECT_NE(RunConvert({torn.c_str(), "/tmp/never"}, &error), 0);
  EXPECT_NE(error.find("torn tail"), std::string::npos) << error;
}

// --- One drop rule for capture-kind hwpb -------------------------------------

// A capture whose header says dropped=3 and whose only chunk says
// dropped_before=7, with both CRCs recomputed. The spec wants 0 in a
// capture's chunks, but whatever arrives is folded into the capture's one
// drop count — 10 events in 1 gap, all the text form can carry.
std::string CraftedDropCapture() {
  std::string bin = EncodeCaptureBinary(TwoByteRecordTrace(8));
  auto put = [&](std::size_t at, std::uint64_t value, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      bin[at + static_cast<std::size_t>(b)] = static_cast<char>((value >> (8 * b)) & 0xFF);
    }
  };
  put(20, 3, 8);  // header dropped_events
  put(36, Crc32(bin.data() + 8, 28), 4);
  const std::size_t chunk = kBinaryFileHeaderSize;
  put(chunk + 12, 7, 8);  // chunk dropped_before
  const std::size_t payload = static_cast<unsigned char>(bin[chunk + 8]) |
                              (static_cast<unsigned char>(bin[chunk + 9]) << 8);
  std::uint32_t crc = Crc32Update(kCrc32Init, bin.data() + chunk + 4, 16);
  crc = Crc32Update(crc, bin.data() + chunk + kBinaryChunkHeaderSize, payload);
  put(chunk + 20, Crc32Final(crc), 4);
  return bin;
}

int RunExport(std::initializer_list<const char*> args, std::string* error) {
  std::vector<const char*> argv{"hwprof_export"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ExportMain(static_cast<int>(argv.size()), argv.data(), error);
}

std::uint64_t CounterValue(const obs::Snapshot& snap, const std::string& name) {
  for (const obs::MetricValue& m : snap.metrics) {
    if (m.name == name) {
      return m.count;
    }
  }
  return 0;
}

TEST(CaptureDropRule, EveryConsumerFoldsChunkDropsIntoOneCaptureGap) {
  const std::string bin = CraftedDropCapture();
  const std::string capture = WriteTempFile("droprule.hwpb", bin);
  const std::string names = WriteNamesFile("droprule.names");
  {
    CaptureReader reader(bin, /*salvage=*/false);
    ASSERT_TRUE(reader.header_ok());  // both CRCs check out
  }

  auto expect_json = [](const std::string& json, const std::string& where) {
    EXPECT_NE(json.find("\"dropped_events\": 10,"), std::string::npos) << where << json;
    EXPECT_NE(json.find("\"capture_gaps\": 1,"), std::string::npos) << where << json;
  };
  auto analyze_json = [&](const std::string& path, const char* jobs) {
    std::string error;
    ::testing::internal::CaptureStdout();
    const int rc = RunAnalyze({path.c_str(), names.c_str(), "--json", "--jobs", jobs}, &error);
    const std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_EQ(rc, 0) << error;
    return out;
  };
  expect_json(analyze_json(capture, "1"), "hwprof_analyze --jobs 1\n");
  expect_json(analyze_json(capture, "8"), "hwprof_analyze --jobs 8\n");

  // hwprof_export: the anomaly instants and the --telemetry counter tracks.
  obs::SetEnabled(true);
  obs::ResetTelemetry();
  const std::string exported = ::testing::TempDir() + "/droprule.json";
  std::string error;
  ASSERT_EQ(RunExport({capture.c_str(), names.c_str(), "--telemetry", "--out",
                       exported.c_str()},
                      &error),
            0)
      << error;
  TraceEventTotals totals;
  ASSERT_TRUE(SummarizeTraceEventJson(ReadWholeFile(exported), &totals, &error)) << error;
  EXPECT_EQ(totals.anomaly_counts["dropped_events"], 10u);
  EXPECT_EQ(totals.anomaly_counts["capture_gaps"], 1u);
  const obs::Snapshot after_export = obs::GlobalSnapshot();
  EXPECT_EQ(CounterValue(after_export, "decode.anomaly.dropped_events"), 10u);
  EXPECT_EQ(CounterValue(after_export, "decode.anomaly.capture_gaps"), 1u);

  // The library loader and batch decoder.
  RawTrace raw;
  ASSERT_TRUE(LoadCapture(capture, &raw));
  EXPECT_EQ(raw.dropped_events, 10u);
  const DecodedTrace decoded = Decoder::Decode(raw, MakeNames());
  EXPECT_EQ(decoded.dropped_events, 10u);
  EXPECT_EQ(decoded.capture_gaps, 1u);

  // hwprofd: the summary's ledger, and the decode it came from.
  obs::ResetTelemetry();
  service::ServiceOptions options;
  options.workers = 0;
  service::IngestService service(MakeNames(), options);
  ASSERT_TRUE(service.Submit("t", bin).accepted);
  service::UploadOutcome outcome;
  ASSERT_TRUE(service.LookupOutcome(service::IngestService::HashPayload(bin), &outcome));
  EXPECT_EQ(outcome.anomalies, 10u);  // the drops are the only anomaly
  EXPECT_NE(outcome.summary.find("dropped events"), std::string::npos) << outcome.summary;
  const obs::Snapshot after_ingest = obs::GlobalSnapshot();
  EXPECT_EQ(CounterValue(after_ingest, "decode.anomaly.dropped_events"), 10u);
  EXPECT_EQ(CounterValue(after_ingest, "decode.anomaly.capture_gaps"), 1u);

  // hwprof_convert to text and back through the analyzer: lossless.
  const std::string text = ::testing::TempDir() + "/droprule.hwprof";
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunConvert({capture.c_str(), text.c_str()}, &error), 0) << error;
  ::testing::internal::GetCapturedStdout();
  EXPECT_NE(ReadWholeFile(text).find(" dropped=10"), std::string::npos);
  expect_json(analyze_json(text, "1"), "convert -> text -> hwprof_analyze\n");
}

// --- Text stream parser regressions -----------------------------------------

TEST(TextStreamSalvage, MidFileResyncIsNotATornTail) {
  // Bank 0 promises three events but its third line is destroyed; the next
  // bank follows immediately. Salvage must resynchronise at that boundary,
  // bill exactly one corrupt word, and NOT claim the writer was still
  // appending (the old parser set truncated_tail on every short chunk).
  const std::string path = WriteTempFile(
      "resync.hwstream",
      "hwprof-stream v1 24 1000000\n"
      "chunk 3 0\n100 10\n101 20\nzap!\n"
      "chunk 2 0\n100 50\n101 60\n");
  StreamCapture stream;
  std::vector<TraceDiag> diags;
  std::uint64_t corrupt = 0;
  ASSERT_TRUE(ReadStreamBytes(ReadWholeFile(path), /*salvage=*/true, &stream, &diags,
                              &corrupt));
  EXPECT_FALSE(stream.truncated_tail);
  EXPECT_EQ(corrupt, 1u);
  ASSERT_EQ(stream.chunks.size(), 2u);
  EXPECT_EQ(stream.chunks[0].events.size(), 2u);
  EXPECT_EQ(stream.chunks[1].events.size(), 2u);
}

TEST(TextStreamSalvage, DestroyedChunkHeaderDoesNotBillTheOrphanedEvents) {
  // The second bank's header line is destroyed but its three event lines are
  // intact. Salvage must recover them as a chunk and charge ONE corrupt word
  // (the header), not four — the old parser billed every orphaned line.
  const std::string path = WriteTempFile(
      "orphans.hwstream",
      "hwprof-stream v1 24 1000000\n"
      "chunk 2 0\n100 10\n101 20\n"
      "chXnk ? 0\n100 30\n101 40\n100 50\n"
      "chunk 1 0\n101 80\n");
  StreamCapture stream;
  std::vector<TraceDiag> diags;
  std::uint64_t corrupt = 0;
  ASSERT_TRUE(ReadStreamBytes(ReadWholeFile(path), /*salvage=*/true, &stream, &diags,
                              &corrupt));
  EXPECT_EQ(corrupt, 1u);
  EXPECT_FALSE(stream.truncated_tail);
  ASSERT_EQ(stream.chunks.size(), 3u);
  EXPECT_EQ(stream.chunks[0].events.size(), 2u);
  EXPECT_EQ(stream.chunks[1].events.size(), 3u);  // the recovered orphans
  EXPECT_EQ(stream.chunks[1].dropped_before, 0u);  // the boundary count is gone
  EXPECT_EQ(stream.chunks[2].events.size(), 1u);
  EXPECT_TRUE(HasDiag(diags, "recovered 3 orphaned event lines"));

  // Strict mode still refuses the same file with a line diagnostic.
  StreamCapture strict;
  diags.clear();
  EXPECT_FALSE(LoadStream(path, &strict, &diags));
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(diags[0].line, 5);
}

TEST(TextStreamSalvage, HugeChunkCountIsATornTailNotAnAllocation) {
  // A chunk header may claim any count; only the lines actually present are
  // read, so a lying count ends as a short (torn) final chunk.
  StreamCapture stream;
  ASSERT_TRUE(ReadStreamBytes("hwprof-stream v1 24 1000000\nchunk 99999999999999 0\n100 1\n",
                              /*salvage=*/false, &stream, nullptr));
  EXPECT_TRUE(stream.truncated_tail);
  ASSERT_EQ(stream.chunks.size(), 1u);
  EXPECT_EQ(stream.chunks[0].events.size(), 1u);
}

TEST(TextStreamSalvage, CorruptionSpanningAChunkBoundaryCountsOnce) {
  // The last event line of bank 0 AND the following chunk header are both
  // mangled: exactly two unreadable lines, so exactly two corrupt words —
  // resync must not double-bill the boundary, and the trailing bank parses.
  const std::string path = WriteTempFile(
      "boundary.hwstream",
      "hwprof-stream v1 24 1000000\n"
      "chunk 2 0\n100 10\nga rb age\n"
      "not a header either\n"
      "chunk 1 0\n101 50\n");
  StreamCapture stream;
  std::vector<TraceDiag> diags;
  std::uint64_t corrupt = 0;
  ASSERT_TRUE(ReadStreamBytes(ReadWholeFile(path), /*salvage=*/true, &stream, &diags,
                              &corrupt));
  EXPECT_EQ(corrupt, 2u);
  EXPECT_FALSE(stream.truncated_tail);
  ASSERT_EQ(stream.chunks.size(), 2u);
  EXPECT_EQ(stream.chunks[0].events.size(), 1u);
  EXPECT_EQ(stream.chunks[1].events.size(), 1u);
}

// --- The text reader: chunk by chunk, one damage rule ------------------------

TEST(TextReader, CaptureIsHandedOutInBoundedSlices) {
  // A text capture comes out kBinaryCaptureChunkRecords records at a time,
  // like hwpb, so memory is one chunk whatever the capture's length.
  const std::size_t n = 2 * kBinaryCaptureChunkRecords + 5;
  const std::string text = TwoByteRecordTrace(n).Serialize();
  CaptureReader reader(text, /*salvage=*/false);
  SoaChunk chunk;
  std::vector<std::size_t> sizes;
  while (reader.Next(&chunk)) {
    sizes.push_back(chunk.tags.size());
  }
  EXPECT_FALSE(reader.failed());
  EXPECT_EQ(sizes, (std::vector<std::size_t>{kBinaryCaptureChunkRecords,
                                             kBinaryCaptureChunkRecords, 5}));
}

TEST(TextReader, StrictCaptureStopsAtTheFirstBadLineButListsEveryOne) {
  // Two bad lines, the first one past the first slice: strict hands out the
  // first slice, fails on the second, and still names both lines; salvage
  // keeps every other record and bills one corrupt word per bad line.
  const std::size_t n = kBinaryCaptureChunkRecords + 100;
  std::string text = TwoByteRecordTrace(n).Serialize();
  auto spoil_line = [&text](std::size_t line_no) {  // 1-based, header = 1
    std::size_t at = 0;
    for (std::size_t i = 1; i < line_no; ++i) {
      at = text.find('\n', at) + 1;
    }
    text.replace(at, text.find('\n', at) - at, "junk");
  };
  const std::size_t first_bad = kBinaryCaptureChunkRecords + 10;
  spoil_line(first_bad);
  spoil_line(n + 1);  // the last record

  CaptureReader strict(text, /*salvage=*/false);
  SoaChunk chunk;
  ASSERT_TRUE(strict.Next(&chunk));
  EXPECT_EQ(chunk.tags.size(), kBinaryCaptureChunkRecords);
  EXPECT_FALSE(strict.Next(&chunk));
  EXPECT_TRUE(strict.failed());
  const std::vector<TraceDiag> diags = strict.diags();
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].line, static_cast<int>(first_bad));
  EXPECT_EQ(diags[1].line, static_cast<int>(n + 1));

  RawTrace salvaged;
  std::uint64_t corrupt = 0;
  ASSERT_TRUE(ReadCaptureBytes(text, /*salvage=*/true, &salvaged, nullptr, &corrupt));
  EXPECT_EQ(corrupt, 2u);
  EXPECT_EQ(salvaged.events.size(), n - 2);
}

TEST(TextReader, SameBadLineGetsTheSameReasonInACaptureAndAStream) {
  // One record check serves both text formats.
  for (const std::string bad : {"12 abc", "1 2 3", "70000 5", "5 16777216", ""}) {
    RawTrace raw;
    StreamCapture stream;
    std::vector<TraceDiag> capture_diags;
    std::vector<TraceDiag> stream_diags;
    EXPECT_FALSE(ReadCaptureBytes("hwprof-raw v1 24 1000000 0\n100 10\n" + bad + "\n100 20\n",
                                  /*salvage=*/false, &raw, &capture_diags));
    EXPECT_FALSE(ReadStreamBytes(
        "hwprof-stream v1 24 1000000\nchunk 3 0\n100 10\n" + bad + "\n100 20\n",
        /*salvage=*/false, &stream, &stream_diags));
    ASSERT_EQ(capture_diags.size(), 1u) << bad;
    ASSERT_EQ(stream_diags.size(), 1u) << bad;
    EXPECT_EQ(capture_diags[0].line, 3);
    EXPECT_EQ(stream_diags[0].line, 4);
    EXPECT_EQ(stream_diags[0].message, capture_diags[0].message) << bad;
  }
  StreamCapture stream;
  std::vector<TraceDiag> diags;
  EXPECT_FALSE(ReadStreamBytes("hwprof-stream v1 24 1000000\nchunk 2 0\n12 abc\n100 20\n",
                               /*salvage=*/false, &stream, &diags));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].message, "tag and timestamp must be non-negative decimal numbers");
}

TEST(TextReader, WrongKindIsRefusedBeforeAnyBodyIsRead) {
  // The kind check comes before the first chunk, so a damaged body of the
  // wrong kind yields the refusal alone.
  StreamCapture stream;
  std::vector<TraceDiag> diags;
  EXPECT_FALSE(ReadStreamBytes("hwprof-raw v1 24 1000000 0\njunk\n100 1\n",
                               /*salvage=*/false, &stream, &diags));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 1);
  EXPECT_EQ(diags[0].message, "capture file where a stream was expected");

  RawTrace raw;
  diags.clear();
  EXPECT_FALSE(ReadCaptureBytes("hwprof-stream v1 24 1000000\nchunk 1 0\njunk\nchunk 1 0\n",
                                /*salvage=*/true, &raw, &diags));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].message, "stream file where a capture was expected");
}

TEST(TextReader, EveryFormatBooksSalvagedWordsIntoTheSameCounter) {
  // One damage rule: salvaged words land in corrupt_words() and in
  // socket.corrupt_lines alike for a text capture, a text stream and hwpb.
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  RawTrace bad_mask = TwoByteRecordTrace(100);
  bad_mask.timer_bits = 8;  // the 15 timestamps past 255 are corrupt words
  std::string spoiled_crc = EncodeCaptureBinary(TwoByteRecordTrace(8));
  spoiled_crc[NthChunkOffset(spoiled_crc, 0) + 20] ^= 0x01;
  for (const std::string& bytes :
       {std::string("hwprof-raw v1 24 1000000 0\n100 10\njunk\n1 2 3\n100 20\n"),
        std::string("hwprof-stream v1 24 1000000\nchunk 3 0\n100 10\njunk\n100 20\n"
                    "chXnk\n100 30\n"),
        EncodeCaptureBinary(bad_mask), spoiled_crc}) {
    obs::ResetTelemetry();
    CaptureReader reader(bytes, /*salvage=*/true);
    SoaChunk chunk;
    while (reader.Next(&chunk)) {
    }
    EXPECT_FALSE(reader.failed());
    EXPECT_GT(reader.corrupt_words(), 0u) << bytes;
    EXPECT_EQ(CounterValue(obs::GlobalSnapshot(), "socket.corrupt_lines"),
              reader.corrupt_words())
        << bytes;
  }
  obs::ResetTelemetry();
  obs::SetEnabled(was_enabled);
}

}  // namespace
}  // namespace hwprof
