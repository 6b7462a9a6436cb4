// Document (de)serialization — the on-disk form of a corpus.
//
// The streaming pipeline can ingest documents from a shard archive instead
// of RAM (paper §6.1: inputs are staged as packed archives in node-local
// storage). This codec defines the entry payload: one compact JSON object
// per document carrying every field, so a ShardSource round-trips corpora
// exactly — including the per-document RNG seed that makes every
// (parser, document) pair deterministic.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "doc/document.hpp"
#include "util/json.hpp"

namespace adaparse::io {

/// Serializes every Document field (seed encoded as a decimal string so
/// 64-bit values survive JSON's double-precision numbers).
util::Json document_to_json(const doc::Document& document);

/// Inverse of document_to_json; throws std::runtime_error on malformed or
/// out-of-range fields.
doc::Document document_from_json(const util::Json& j);

/// Packs a corpus into one shard blob (entry name = document id, payload =
/// compact document JSON). Readable by ShardReader / core::ShardSource.
std::string pack_corpus_shard(const std::vector<doc::Document>& docs);

/// Inverse of pack_corpus_shard: decodes every document in a shard blob,
/// in entry order. Throws std::runtime_error on a malformed shard or
/// malformed entry payloads (the campaign runner treats that as a corrupt
/// shard file and re-stages it).
std::vector<doc::Document> unpack_corpus_shard(std::string_view blob);

}  // namespace adaparse::io
