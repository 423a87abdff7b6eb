/** @file Tests for the shared metrics-snapshot codec
 *  (obs/snapshot_io.hh): byte-stable round-trips (the format is part
 *  of the cell cache's byte-identity contract) and strict decode of
 *  malformed documents. */

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hh"
#include "obs/snapshot_io.hh"
#include "util/json.hh"
#include "util/random.hh"

namespace osp::obs
{
namespace
{

MetricsSnapshot
sampleSnapshot()
{
    Registry reg;
    reg.counter("cache", "hits").inc(7);
    reg.counter("predictor", "transitions").inc(3);
    reg.gauge("plt", "occupancy").set(0.75);
    Histogram &h = reg.histogram("intervals", "length");
    h.observe(0);
    h.observe(1);
    h.observe(5);
    h.observe(5);
    h.observe(1000);
    return reg.snapshot();
}

TEST(SnapshotIo, RoundTripIsByteStable)
{
    MetricsSnapshot snap = sampleSnapshot();
    JsonValue doc = metricsSnapshotToJson(snap);
    std::string bytes = doc.dump(-1);

    MetricsSnapshot back;
    bool ok = false;
    ASSERT_TRUE(metricsSnapshotFromJson(
        JsonValue::parse(bytes, &ok), back));
    ASSERT_TRUE(ok);
    EXPECT_EQ(metricsSnapshotToJson(back).dump(-1), bytes);

    ASSERT_EQ(back.counters.size(), 2u);
    EXPECT_EQ(back.counterValue("cache", "hits"), 7u);
    ASSERT_EQ(back.gauges.size(), 1u);
    EXPECT_DOUBLE_EQ(back.gauges[0].value, 0.75);
    const HistogramEntry *h =
        back.findHistogram("intervals", "length");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 5u);
    EXPECT_EQ(h->sum, 1011u);
}

TEST(SnapshotIo, EmptySnapshotRoundTrips)
{
    MetricsSnapshot empty;
    JsonValue doc = metricsSnapshotToJson(empty);
    MetricsSnapshot back;
    ASSERT_TRUE(metricsSnapshotFromJson(doc, back));
    EXPECT_TRUE(back.empty());
}

TEST(SnapshotIo, MalformedDocumentsDecodeFalse)
{
    const char *bad[] = {
        // Counters entry is not a triple.
        R"({"counters":[["c","n"]],"gauges":[],"histograms":[]})",
        // Histogram missing its count field.
        R"({"counters":[],"gauges":[],"histograms":[)"
        R"({"component":"c","name":"n","sum":0,"buckets":[]}]})",
        // Bucket pair is a scalar.
        R"({"counters":[],"gauges":[],"histograms":[)"
        R"({"component":"c","name":"n","count":1,"sum":1,)"
        R"("buckets":[1]}]})",
        // Not an object at all.
        R"([1,2,3])",
    };
    for (const char *text : bad) {
        bool ok = false;
        JsonValue doc = JsonValue::parse(text, &ok);
        ASSERT_TRUE(ok) << text;
        MetricsSnapshot out;
        EXPECT_FALSE(metricsSnapshotFromJson(doc, out)) << text;
    }
}

// Every truncation and 1000 seeded byte flips of a real encoded
// snapshot: each mutation parses and decodes or is rejected, and
// none crashes (the sanitizer builds run this).
TEST(SnapshotIo, MutationsDecodeOrRejectWithoutCrashing)
{
    const std::string bytes =
        metricsSnapshotToJson(sampleSnapshot()).dump(-1);
    std::size_t decoded = 0;
    auto check = [&](const std::string &mutated) {
        bool ok = false;
        JsonValue doc = JsonValue::parse(mutated, &ok);
        MetricsSnapshot out;
        if (ok && metricsSnapshotFromJson(doc, out)) {
            ++decoded;
            (void)metricsSnapshotToJson(out).dump(-1);
        }
    };
    for (std::size_t len = 0; len < bytes.size(); ++len)
        check(bytes.substr(0, len));
    EXPECT_EQ(decoded, 0u);  // no strict prefix is a whole document
    Pcg32 rng(42);
    for (std::size_t n = 0; n < 1000; ++n) {
        std::string mutated = bytes;
        std::size_t pos =
            rng.range(static_cast<std::uint32_t>(bytes.size()));
        mutated[pos] ^= static_cast<char>(1 + rng.range(255));
        check(mutated);
    }
    // Flips inside names and digits still decode.
    EXPECT_GT(decoded, 0u);
}

// Each leaf of a real encoded snapshot, swapped for a value of the
// wrong type (a string for a number, a number for a string), must
// decode false rather than abort in a JsonValue accessor or decode
// an empty name.
TEST(SnapshotIo, WrongTypedLeavesDecodeFalse)
{
    const std::string bytes =
        metricsSnapshotToJson(sampleSnapshot()).dump(-1);
    auto isNumberChar = [](char c) {
        return (c >= '0' && c <= '9') || c == '-' || c == '+' ||
               c == '.' || c == 'e' || c == 'E';
    };
    std::size_t swapped = 0;
    for (std::size_t i = 0; i < bytes.size();) {
        std::size_t end = i;
        std::string replacement;
        if (bytes[i] == '"') {
            end = bytes.find('"', i + 1) + 1;
            replacement = "7";
        } else if (isNumberChar(bytes[i])) {
            while (end < bytes.size() && isNumberChar(bytes[end]))
                ++end;
            replacement = "\"x\"";
        } else {
            ++i;
            continue;
        }
        std::string mutated = bytes.substr(0, i) + replacement +
                              bytes.substr(end);
        i = end;
        bool ok = false;
        JsonValue doc = JsonValue::parse(mutated, &ok);
        if (!ok)
            continue;  // an object key swapped for a number
        MetricsSnapshot out;
        EXPECT_FALSE(metricsSnapshotFromJson(doc, out)) << mutated;
        ++swapped;
    }
    EXPECT_GT(swapped, 10u);
}

} // namespace
} // namespace osp::obs
