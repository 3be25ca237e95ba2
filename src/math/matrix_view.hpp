/**
 * @file
 * Non-owning view of a dense row-major matrix.
 *
 * The solver layer (simplex, Hungarian, repair, memo cache) consumes
 * value matrices that the cluster layer now stores flat (one
 * contiguous row-major buffer per PerformanceMatrix). A view carries
 * the pointer plus shape so solvers can read any flat buffer — a
 * whole matrix, or a sub-rectangle via the stride — without copying
 * or re-nesting.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "util/check.hpp"

namespace poco::math
{

/** Read-only view of rows x cols doubles, row r at data + r*stride. */
struct MatrixView
{
    const double* data = nullptr;
    std::size_t rows = 0;
    std::size_t cols = 0;
    /** Doubles between row starts (== cols for a packed matrix). */
    std::size_t stride = 0;

    MatrixView() = default;

    MatrixView(const double* data_, std::size_t rows_,
               std::size_t cols_)
        : data(data_), rows(rows_), cols(cols_), stride(cols_)
    {}

    MatrixView(const double* data_, std::size_t rows_,
               std::size_t cols_, std::size_t stride_)
        : data(data_), rows(rows_), cols(cols_), stride(stride_)
    {}

    /** View of a packed flat buffer (size must be rows * cols). */
    MatrixView(const std::vector<double>& flat, std::size_t rows_,
               std::size_t cols_)
        : data(flat.data()), rows(rows_), cols(cols_), stride(cols_)
    {
        POCO_REQUIRE(flat.size() == rows_ * cols_,
                     "flat buffer size must equal rows * cols");
    }

    /**
     * View of a packed flat buffer whose row width is inferred from
     * @p rows_ (size must divide evenly). Convenience for callers
     * assembling row-major designs incrementally.
     */
    static MatrixView ofRows(const std::vector<double>& flat,
                             std::size_t rows_)
    {
        POCO_REQUIRE(rows_ > 0, "matrix must have rows");
        POCO_REQUIRE(flat.size() % rows_ == 0,
                     "flat buffer size must be a multiple of rows");
        return {flat.data(), rows_, flat.size() / rows_};
    }

    bool empty() const { return rows == 0 || cols == 0; }

    const double* row(std::size_t r) const
    {
        return data + r * stride;
    }

    double operator()(std::size_t r, std::size_t c) const
    {
        return data[r * stride + c];
    }
};

/**
 * The assignment solvers' shape precondition (Hungarian, LP,
 * exhaustive): at least one agent row, at least one task column, and
 * no more agents than tasks.
 * @throws poco::FatalError when it does not hold.
 */
inline void
requireAssignmentShape(MatrixView m)
{
    POCO_REQUIRE(m.rows > 0, "assignment matrix must be non-empty");
    POCO_REQUIRE(m.cols > 0, "assignment matrix must have columns");
    POCO_REQUIRE(m.rows <= m.cols, "requires rows <= cols");
}

} // namespace poco::math
