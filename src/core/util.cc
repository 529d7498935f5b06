#include "core/util.h"

#include <algorithm>
#include <set>

namespace tfjs::util {

Shape broadcastShapes(const Shape& a, const Shape& b) {
  const int rank = std::max(a.rank(), b.rank());
  std::vector<int> out(static_cast<std::size_t>(rank), 1);
  for (int i = 0; i < rank; ++i) {
    const int ai = i < rank - a.rank() ? 1 : a[i - (rank - a.rank())];
    const int bi = i < rank - b.rank() ? 1 : b[i - (rank - b.rank())];
    TFJS_ARG_CHECK(ai == bi || ai == 1 || bi == 1,
                   "Shapes " << a.toString() << " and " << b.toString()
                             << " are not broadcast-compatible");
    // A size-1 dim stretches to the other dim — including to 0 (max() would
    // wrongly promote a zero-sized dim to 1).
    out[static_cast<std::size_t>(i)] = ai == 1 ? bi : ai;
  }
  return Shape(std::move(out));
}

bool broadcastsTo(const Shape& from, const Shape& to) {
  if (from.rank() > to.rank()) return false;
  const int pad = to.rank() - from.rank();
  for (int i = 0; i < from.rank(); ++i) {
    if (from[i] != to[i + pad] && from[i] != 1) return false;
  }
  return true;
}

std::vector<int> broadcastedAxes(const Shape& inShape, const Shape& outShape) {
  std::vector<int> axes;
  const int pad = outShape.rank() - inShape.rank();
  for (int i = 0; i < outShape.rank(); ++i) {
    const int inDim = i < pad ? 1 : inShape[i - pad];
    if (inDim == 1 && outShape[i] != 1) axes.push_back(i);
  }
  return axes;
}

void unravelIndex(std::size_t flat, const Shape& shape,
                  std::span<int> coords) {
  TFJS_CHECK(static_cast<int>(coords.size()) == shape.rank());
  for (int i = shape.rank() - 1; i >= 0; --i) {
    const auto dim = static_cast<std::size_t>(shape[i]);
    coords[static_cast<std::size_t>(i)] = static_cast<int>(flat % dim);
    flat /= dim;
  }
}

std::size_t broadcastIndex(std::span<const int> outCoords,
                           const Shape& inShape, const Shape& outShape) {
  const int pad = outShape.rank() - inShape.rank();
  std::size_t flat = 0;
  for (int i = 0; i < inShape.rank(); ++i) {
    const int dim = inShape[i];
    const int c = dim == 1 ? 0 : outCoords[static_cast<std::size_t>(i + pad)];
    flat = flat * static_cast<std::size_t>(dim) + static_cast<std::size_t>(c);
  }
  return flat;
}

std::vector<int> normalizeAxes(std::span<const int> axes, int rank) {
  std::vector<int> out;
  std::set<int> seen;
  for (int a : axes) {
    const int norm = a < 0 ? a + rank : a;
    TFJS_ARG_CHECK(norm >= 0 && norm < rank,
                   "Axis " << a << " out of range for rank " << rank);
    TFJS_ARG_CHECK(seen.insert(norm).second, "Duplicate axis " << norm);
    out.push_back(norm);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Shape reducedShape(const Shape& shape, std::span<const int> axes,
                   bool keepDims) {
  std::set<int> reduce(axes.begin(), axes.end());
  std::vector<int> out;
  for (int i = 0; i < shape.rank(); ++i) {
    if (reduce.count(i)) {
      if (keepDims) out.push_back(1);
    } else {
      out.push_back(shape[i]);
    }
  }
  return Shape(std::move(out));
}

}  // namespace tfjs::util
