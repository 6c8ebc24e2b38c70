/// \file marioh_method.hpp
/// \brief Factories of the MARIOH family: the full method and its three
/// ablations, each `core::Marioh` behind the `Reconstructor` interface.
/// Their names and metadata are the rows of `builtin_methods.cpp`.

#pragma once

#include "api/method.hpp"

namespace marioh::api {

StatusOr<std::unique_ptr<Reconstructor>> MakeMarioh(
    const MethodConfig& config);
StatusOr<std::unique_ptr<Reconstructor>> MakeMariohM(
    const MethodConfig& config);
StatusOr<std::unique_ptr<Reconstructor>> MakeMariohF(
    const MethodConfig& config);
StatusOr<std::unique_ptr<Reconstructor>> MakeMariohB(
    const MethodConfig& config);

}  // namespace marioh::api
