// Shape/index utilities shared by every backend: broadcasting, coordinate
// arithmetic, and validation helpers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/shape.h"

namespace tfjs::util {

/// NumPy-style broadcast of two shapes; throws InvalidArgumentError when the
/// shapes are incompatible.
Shape broadcastShapes(const Shape& a, const Shape& b);

/// True when `from` can broadcast to exactly `to`.
bool broadcastsTo(const Shape& from, const Shape& to);

/// Axes of `inShape` (after left-padding to outRank) that were broadcast —
/// used to reduce gradients back to an input's shape.
std::vector<int> broadcastedAxes(const Shape& inShape, const Shape& outShape);

/// Converts a flat row-major index into per-axis coordinates.
void unravelIndex(std::size_t flat, const Shape& shape, std::span<int> coords);

/// Flat index into `inShape` for the element that broadcasting maps to the
/// given coordinates of the (larger) broadcast result.
std::size_t broadcastIndex(std::span<const int> outCoords, const Shape& inShape,
                           const Shape& outShape);

/// Canonicalizes (possibly negative) reduction axes; throws on out-of-range
/// or duplicate axes.
std::vector<int> normalizeAxes(std::span<const int> axes, int rank);

/// Shape after reducing `axes` of `shape` (keepDims=false drops them).
Shape reducedShape(const Shape& shape, std::span<const int> axes,
                   bool keepDims);

}  // namespace tfjs::util
