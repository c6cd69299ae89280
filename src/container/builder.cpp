#include "container/builder.hpp"

#include <stdexcept>
#include <utility>

#include "sim/rng.hpp"

namespace hpcs::container {

namespace {

/// Deterministic content digest for a layer: hash of step detail + size.
std::string digest(const RecipeStep& step) {
  // hpcs-lint: allow(HYG-006) a content digest, not a seed
  const std::uint64_t h = sim::hash64(step.detail) ^
                          (0x9e3779b97f4a7c15ull * step.bytes);
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return std::string("sha256:") + buf;
}

/// Flat formats dedup identical files across layers; empirically squashfs
/// of a multi-layer rootfs is ~6% smaller than the layer sum.
constexpr double kFlatDedupFactor = 0.94;

}  // namespace

ImageBuilder::ImageBuilder(hw::NodeModel build_host)
    : host_(std::move(build_host)) {
  host_.validate();
}

double ImageBuilder::layer_write_time(std::uint64_t bytes) const {
  return static_cast<double>(bytes) / host_.disk_write_bw;
}

double ImageBuilder::compress_time(std::uint64_t bytes) const {
  // Squashfs/gzip compression at ~150 MB/s/core using 4 cores.
  constexpr double kCompressBw = 4.0 * 150.0e6;
  return static_cast<double>(bytes) / kCompressBw;
}

BuildResult ImageBuilder::build(const Recipe& recipe,
                                ImageFormat format) const {
  recipe.validate();

  std::vector<Layer> layers;
  double time = 0.0;
  for (const auto& step : recipe.steps()) {
    if (step.bytes == 0) continue;  // BIND/ENV/LABEL: metadata only
    layers.push_back(Layer{digest(step), step.bytes, step.detail});
    // Each layer is fetched/installed then written to the build cache.
    time += layer_write_time(step.bytes);
    if (step.kind == StepKind::Run)
      time += 2.0;  // package-manager overhead per RUN step
  }
  if (layers.empty())
    throw std::invalid_argument("ImageBuilder: recipe produced no layers");

  if (format == ImageFormat::DockerLayered) {
    time += compress_time(recipe.content_bytes());  // gzip for the registry
    return BuildResult{Image(recipe.image_name(), recipe.tag(), format,
                             recipe.arch(), recipe.mode(), std::move(layers)),
                       time};
  }

  // Flat build: merge into a single squashed layer.
  std::uint64_t merged = 0;
  std::string provenance;
  for (const auto& l : layers) {
    merged += l.bytes;
    if (!provenance.empty()) provenance += " + ";
    provenance += l.created_by;
  }
  merged = static_cast<std::uint64_t>(static_cast<double>(merged) *
                                      kFlatDedupFactor);
  time += compress_time(merged) + layer_write_time(merged);
  std::vector<Layer> flat{
      Layer{digest(RecipeStep{StepKind::Run, provenance, merged}), merged,
            provenance}};
  return BuildResult{Image(recipe.image_name(), recipe.tag(), format,
                           recipe.arch(), recipe.mode(), std::move(flat)),
                     time};
}

BuildResult ImageBuilder::convert(const Image& src, ImageFormat target) const {
  if (src.format() == target) return BuildResult{src, 0.0};
  if (src.format() != ImageFormat::DockerLayered)
    throw std::invalid_argument(
        "ImageBuilder::convert: only docker-layered sources can be "
        "converted (flat -> flat/layered is unsupported)");

  // docker2singularity / Shifter gateway: export the union filesystem,
  // dedup, and recompress into one file.
  std::uint64_t merged = static_cast<std::uint64_t>(
      static_cast<double>(src.uncompressed_bytes()) * kFlatDedupFactor);
  const double time = static_cast<double>(src.uncompressed_bytes()) /
                          host_.disk_read_bw +   // export layers
                      compress_time(merged) +    // recompress
                      layer_write_time(merged);  // write flat file
  std::vector<Layer> flat{Layer{
      // hpcs-lint: allow(HYG-006) a content digest, not a seed
      "sha256:" + std::to_string(sim::hash64(src.reference())), merged,
      "converted from " + std::string(to_string(src.format()))}};
  return BuildResult{Image(src.name(), src.tag(), target, src.arch(),
                           src.mode(), std::move(flat)),
                     time};
}

}  // namespace hpcs::container
