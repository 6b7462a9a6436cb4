#include "io/doc_codec.hpp"

#include <stdexcept>

#include "io/shard.hpp"

namespace adaparse::io {
namespace {

util::Json pages_to_json(const std::vector<std::string>& pages) {
  util::JsonArray arr;
  arr.reserve(pages.size());
  for (const auto& page : pages) arr.emplace_back(page);
  return util::Json(std::move(arr));
}

std::vector<std::string> pages_from_json(const util::Json& j) {
  std::vector<std::string> pages;
  pages.reserve(j.as_array().size());
  for (const auto& page : j.as_array()) pages.push_back(page.as_string());
  return pages;
}

int checked_enum(const util::Json& j, const char* field, int upper) {
  const int v = static_cast<int>(j.at(field).as_number());
  if (v < 0 || v >= upper) {
    throw std::runtime_error(std::string("document_from_json: ") + field +
                             " out of range");
  }
  return v;
}

}  // namespace

util::Json document_to_json(const doc::Document& document) {
  util::JsonObject obj;
  obj["id"] = document.id;
  obj["publisher"] = static_cast<int>(document.meta.publisher);
  obj["domain"] = static_cast<int>(document.meta.domain);
  obj["subcategory"] = document.meta.subcategory;
  obj["year"] = document.meta.year;
  obj["format"] = static_cast<int>(document.meta.format);
  obj["producer"] = static_cast<int>(document.meta.producer);
  obj["meta_pages"] = document.meta.num_pages;
  obj["title"] = document.meta.title;
  obj["groundtruth"] = pages_to_json(document.groundtruth_pages);
  obj["text_pages"] = pages_to_json(document.text_layer.pages);
  obj["text_fidelity"] = document.text_layer.fidelity;
  obj["text_present"] = document.text_layer.present;
  obj["born_digital"] = document.image_layer.born_digital;
  obj["rotation_deg"] = document.image_layer.rotation_deg;
  obj["blur_sigma"] = document.image_layer.blur_sigma;
  obj["contrast"] = document.image_layer.contrast;
  obj["compression"] = document.image_layer.compression;
  obj["layout_complexity"] = document.layout_complexity;
  obj["math_density"] = document.math_density;
  obj["chem_density"] = document.chem_density;
  obj["seed"] = std::to_string(document.seed);
  obj["corrupted"] = document.corrupted;
  return util::Json(std::move(obj));
}

doc::Document document_from_json(const util::Json& j) {
  doc::Document document;
  document.id = j.at("id").as_string();
  document.meta.publisher = static_cast<doc::Publisher>(
      checked_enum(j, "publisher", static_cast<int>(doc::kNumPublishers)));
  document.meta.domain = static_cast<doc::Domain>(
      checked_enum(j, "domain", static_cast<int>(doc::kNumDomains)));
  document.meta.subcategory = static_cast<int>(j.at("subcategory").as_number());
  document.meta.year = static_cast<int>(j.at("year").as_number());
  document.meta.format = static_cast<doc::PdfFormat>(
      checked_enum(j, "format", static_cast<int>(doc::kNumFormats)));
  document.meta.producer = static_cast<doc::ProducerTool>(
      checked_enum(j, "producer", static_cast<int>(doc::kNumProducers)));
  document.meta.num_pages = static_cast<int>(j.at("meta_pages").as_number());
  document.meta.title = j.at("title").as_string();
  document.groundtruth_pages = pages_from_json(j.at("groundtruth"));
  document.text_layer.pages = pages_from_json(j.at("text_pages"));
  document.text_layer.fidelity = j.at("text_fidelity").as_number();
  document.text_layer.present = j.at("text_present").as_bool();
  document.image_layer.born_digital = j.at("born_digital").as_bool();
  document.image_layer.rotation_deg = j.at("rotation_deg").as_number();
  document.image_layer.blur_sigma = j.at("blur_sigma").as_number();
  document.image_layer.contrast = j.at("contrast").as_number();
  document.image_layer.compression = j.at("compression").as_number();
  document.layout_complexity = j.at("layout_complexity").as_number();
  document.math_density = j.at("math_density").as_number();
  document.chem_density = j.at("chem_density").as_number();
  document.seed = std::stoull(j.at("seed").as_string());
  document.corrupted = j.at("corrupted").as_bool();
  return document;
}

std::string pack_corpus_shard(const std::vector<doc::Document>& docs) {
  ShardWriter writer;
  for (const auto& document : docs) {
    writer.add(document.id, document_to_json(document).dump());
  }
  return writer.finish();
}

std::vector<doc::Document> unpack_corpus_shard(std::string_view blob) {
  ShardReader reader(blob);
  std::vector<doc::Document> docs;
  docs.reserve(reader.count());
  for (const auto& entry : reader.entries()) {
    docs.push_back(document_from_json(util::Json::parse(entry.payload)));
  }
  return docs;
}

}  // namespace adaparse::io
