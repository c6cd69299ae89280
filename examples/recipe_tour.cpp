// recipe_tour: the image-lifecycle walkthrough — parse a Dockerfile-like
// recipe from text, build it natively into the three formats, convert a
// Docker image for the HPC runtimes, and watch layer-level caching pay
// off on a re-deploy.
//
// Build & run:  ./build/examples/recipe_tour

#include <iostream>

#include "container/builder.hpp"
#include "container/deployment.hpp"
#include "container/runtime.hpp"
#include "hw/presets.hpp"
#include "sim/table.hpp"

namespace hc = hpcs::container;
using hpcs::sim::TextTable;

int main() {
  const auto cluster = hpcs::hw::presets::lenox();
  const auto node = cluster.node;

  // 1. A recipe in the text format (what a user would commit to git).
  const std::string text = R"(
# Containerized Alya, portable build
NAME alya:tour
ARCH x86_64
MODE self-contained
FROM centos:7 210MiB
RUN yum install gcc-runtime libgfortran zlib 160MiB
RUN yum install hdf5 metis blas lapack 120MiB
BUNDLE mpi openmpi-3.0-generic 210MiB
COPY build/alya /opt/alya/bin/alya 85MiB
ENV ALYA_HOME=/opt/alya
LABEL maintainer=bsc-containers
)";
  const auto recipe = hc::Recipe::parse(text);
  std::cout << "parsed recipe '" << recipe.image_name() << ":"
            << recipe.tag() << "' — " << recipe.layer_steps()
            << " layer steps, "
            << recipe.content_bytes() / (1 << 20) << " MiB of content, "
            << (recipe.has_bundled_mpi() ? "bundles its own MPI"
                                         : "binds the host MPI")
            << "\n\n";

  // 2. Build into each technology's native format.
  const hc::ImageBuilder builder(node);
  TextTable t({"format", "layers", "on disk [MiB]", "on wire [MiB]",
               "build [s]"});
  for (auto fmt :
       {hc::ImageFormat::DockerLayered, hc::ImageFormat::SingularitySif,
        hc::ImageFormat::ShifterSquashfs}) {
    const auto res = builder.build(recipe, fmt);
    t.add_row({std::string(to_string(fmt)),
               std::to_string(res.image.layers().size()),
               std::to_string(res.image.uncompressed_bytes() / (1 << 20)),
               std::to_string(res.image.transfer_bytes() / (1 << 20)),
               TextTable::num(res.build_time, 1)});
  }
  t.print(std::cout);

  // 3. The conversion path HPC sites actually used: build with Docker on
  //    a workstation, convert for the cluster runtime.
  const auto docker_img =
      builder.build(recipe, hc::ImageFormat::DockerLayered).image;
  const auto sif =
      builder.convert(docker_img, hc::ImageFormat::SingularitySif);
  std::cout << "\ndocker2singularity: " << docker_img.reference() << " -> "
            << to_string(sif.image.format()) << " in "
            << TextTable::num(sif.build_time, 1) << " s\n";

  // 4. Layer caching: deploy v1 cold on one node, then re-deploy an
  //    update with v1's layers already in the node cache.
  hc::DeploymentSimulator sim(cluster);
  const auto docker = hc::ContainerRuntime::make(hc::RuntimeKind::Docker);
  const auto cold = sim.deploy(*docker, docker_img, 1, 1).bytes_transferred;
  sim.seed_node_cache(docker_img);

  // A rebuilt image where only the application layer changed.
  auto recipe2 = hc::Recipe::parse(text);
  recipe2.copy("build/alya-v2 -> /opt/alya/bin/alya", 85 << 20);
  const auto v2 = builder.build(recipe2, hc::ImageFormat::DockerLayered);
  const auto warm = sim.deploy(*docker, v2.image, 1, 1).bytes_transferred;

  std::cout << "cold pull of v1: " << cold / (1 << 20)
            << " MiB;  v2 update with v1 cached: " << warm / (1 << 20)
            << " MiB (only the changed layer moves)\n";
  return 0;
}
