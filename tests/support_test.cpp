#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "src/support/chart.h"
#include "src/support/csv.h"
#include "src/support/diag.h"
#include "src/support/json.h"
#include "src/support/metrics.h"
#include "src/support/str.h"
#include "src/support/table.h"

namespace zc {
namespace {

TEST(Str, JoinAndSplit) {
  EXPECT_EQ(str::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(str::join({}, ","), "");
  const auto parts = str::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Str, Trim) {
  EXPECT_EQ(str::trim("  x y  "), "x y");
  EXPECT_EQ(str::trim(""), "");
  EXPECT_EQ(str::trim(" \t\n "), "");
}

TEST(Str, StartsEndsWith) {
  EXPECT_TRUE(str::starts_with("foobar", "foo"));
  EXPECT_FALSE(str::starts_with("fo", "foo"));
  EXPECT_TRUE(str::ends_with("foobar", "bar"));
  EXPECT_FALSE(str::ends_with("ar", "bar"));
}

TEST(Str, FormatF) {
  EXPECT_EQ(str::format_f(1.23456, 3), "1.235");
  EXPECT_EQ(str::format_f(2.0, 0), "2");
}

TEST(Str, WithCommas) {
  EXPECT_EQ(str::with_commas(0), "0");
  EXPECT_EQ(str::with_commas(999), "999");
  EXPECT_EQ(str::with_commas(1000), "1,000");
  EXPECT_EQ(str::with_commas(1234567), "1,234,567");
  EXPECT_EQ(str::with_commas(-1234567), "-1,234,567");
}

TEST(Str, Pad) {
  EXPECT_EQ(str::pad_left("x", 3), "  x");
  EXPECT_EQ(str::pad_right("x", 3), "x  ");
  EXPECT_EQ(str::pad_left("long", 2), "long");
}

TEST(Str, Percent) {
  EXPECT_EQ(str::percent(1.0, 4.0), "25%");
  EXPECT_EQ(str::percent(1.0, 0.0), "--");
}

TEST(Diag, SourceLoc) {
  EXPECT_FALSE(SourceLoc{}.valid());
  EXPECT_TRUE((SourceLoc{3, 7}).valid());
  EXPECT_EQ((SourceLoc{3, 7}).to_string(), "3:7");
}

TEST(Diag, EngineCollectsAndThrows) {
  DiagnosticEngine diags;
  EXPECT_FALSE(diags.has_errors());
  diags.warning({1, 1}, "w");
  EXPECT_FALSE(diags.has_errors());
  diags.error({2, 5}, "bad thing");
  EXPECT_TRUE(diags.has_errors());
  EXPECT_EQ(diags.error_count(), 1);
  EXPECT_NE(diags.to_string().find("2:5: error: bad thing"), std::string::npos);
  EXPECT_THROW(diags.throw_if_errors("ctx"), Error);
}

TEST(Diag, ErrorCarriesLoc) {
  const Error e(SourceLoc{4, 2}, "oops");
  EXPECT_EQ(e.loc().line, 4);
  EXPECT_NE(std::string(e.what()).find("4:2"), std::string::npos);
}

TEST(Table, RendersAligned) {
  Table t({"name", "count"});
  t.add_row({"alpha", "1,234"});
  t.add_separator();
  t.add_row({"b", "7"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha | 1,234"), std::string::npos);
  EXPECT_NE(s.find("------+------"), std::string::npos);
  // Right-aligned numeric column.
  EXPECT_NE(s.find("b     |     7"), std::string::npos);
}

TEST(Table, RowBuilder) {
  RowBuilder rb;
  rb.cell("x").cell(1234567LL).cell(1.5, 2).percent_cell(1, 2);
  auto row = std::move(rb).build();
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[1], "1,234,567");
  EXPECT_EQ(row[2], "1.50");
  EXPECT_EQ(row[3], "50%");
}

TEST(Csv, EscapesFields) {
  CsvWriter w({"a", "b"});
  w.add_row({"plain", "has,comma"});
  w.add_row({"has\"quote", "multi\nline"});
  const std::string s = w.to_string();
  EXPECT_NE(s.find("a,b\n"), std::string::npos);
  EXPECT_NE(s.find("plain,\"has,comma\"\n"), std::string::npos);
  EXPECT_NE(s.find("\"has\"\"quote\""), std::string::npos);
}

TEST(BarChart, RendersGroupsAndSeries) {
  BarChart chart("title", {"rr", "cc"});
  chart.set_value_suffix("x");
  chart.add_group("tomcatv", {0.93, 0.76});
  const std::string s = chart.to_string();
  EXPECT_NE(s.find("title"), std::string::npos);
  EXPECT_NE(s.find("tomcatv"), std::string::npos);
  EXPECT_NE(s.find("0.930x"), std::string::npos);
  EXPECT_NE(s.find('#'), std::string::npos);
}

TEST(BarChart, NanRendersAsNA) {
  BarChart chart("t", {"s"});
  chart.add_group("g", {std::nan("1")});
  EXPECT_NE(chart.to_string().find("n/a"), std::string::npos);
}

TEST(SeriesChart, RendersAllPoints) {
  SeriesChart chart("overhead", "bytes", "seconds");
  chart.add_series("csend", {8, 64, 4096}, {1e-5, 1.2e-5, 9e-5});
  const std::string s = chart.to_string();
  EXPECT_NE(s.find("csend"), std::string::npos);
  EXPECT_NE(s.find("4096"), std::string::npos);
}

// --- JSON hardening against untrusted input -------------------------------

TEST(Json, RoundTripsWellFormedDocument) {
  const json::Value v = json::parse(R"({"a": [1, 2.5, "x\n", true, null], "b": {}})");
  EXPECT_EQ(v.at("a").array.size(), 5u);
  EXPECT_DOUBLE_EQ(v.at("a").array[1].number, 2.5);
  EXPECT_EQ(v.at("a").array[2].string, "x\n");
  EXPECT_TRUE(v.at("b").is_object());
}

TEST(Json, RejectsDocumentsOverTheByteLimit) {
  json::ParseLimits limits;
  limits.max_bytes = 16;
  EXPECT_NO_THROW(json::parse(R"({"k": 12345})", limits));
  try {
    json::parse(R"({"key": "0123456789abcdef"})", limits);
    FAIL() << "oversized document parsed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("16-byte limit"), std::string::npos);
  }
}

TEST(Json, RejectsNestingBeyondTheDepthLimit) {
  json::ParseLimits limits;
  limits.max_depth = 8;
  std::string at_limit = "1";
  for (int i = 0; i < 8; ++i) at_limit = "[" + at_limit + "]";
  EXPECT_NO_THROW(json::parse(at_limit, limits));
  EXPECT_THROW(json::parse("[" + at_limit + "]", limits), Error);

  // Mixed container nesting counts every level.
  std::string mixed = "0";
  for (int i = 0; i < 5; ++i) mixed = R"({"k": [)" + mixed + "]}";
  EXPECT_THROW(json::parse(mixed, limits), Error);  // 10 levels > 8
}

TEST(Json, DeepAdversarialNestingFailsInsteadOfOverflowing) {
  // A megabyte of '[' used to recurse once per byte; now it must throw the
  // depth error (carrying an offset) long before any stack risk.
  std::string object_bomb;
  for (int i = 0; i < (1 << 18); ++i) object_bomb += R"({"a":)";
  const std::string bombs[] = {std::string(1 << 20, '['), std::move(object_bomb)};
  for (const std::string& bomb : bombs) {
    try {
      json::parse(bomb);
      FAIL() << "unterminated nesting bomb parsed";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("nesting deeper than"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
    }
  }
}

TEST(Json, MalformedInputsThrowWithByteOffsets) {
  // Fuzz-style corpus: every entry must throw zc::Error (never crash, hang,
  // or silently succeed), and the message must carry a byte offset.
  const std::string_view corpus[] = {
      "",        "{",        "[",         "\"abc",     "{\"a\"",    "{\"a\":}",
      "[1,",     "[1 2]",    "{\"a\" 1}", "tru",       "falsee",    "nul",
      "-",       "+1",       "1e",        "0x10",      "1.2.3",     "--1",
      "\"\\q\"", "\"\\u12\"", "\"\\u123g\"", "{\"a\":1,}",  "[]]",   "{}}",
      "[1] 2",   "\x01",     "{1: 2}",    "\"unterminated\\",        "[,]",
  };
  for (const std::string_view text : corpus) {
    try {
      json::parse(text);
      FAIL() << "malformed input parsed: " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
          << "no byte offset for: " << text << " -> " << e.what();
    }
  }
}

TEST(Json, EmbeddedNulAndControlBytesAreRejectedOrEscaped) {
  // NUL inside a string is content (parses; round-trips escaped), NUL
  // outside is a syntax error with an offset.
  const json::Value v = json::parse(std::string_view("\"a\\u0000b\"", 10));
  EXPECT_EQ(v.string.size(), 3u);
  EXPECT_THROW(json::parse(std::string_view("\0", 1)), Error);
  EXPECT_THROW(json::parse(std::string_view("[1,\0]", 5)), Error);
}

}  // namespace
}  // namespace zc
