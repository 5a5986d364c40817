/**
 * @file
 * Fixed-size, zero-initialized array whose pages are first written by
 * their first use, not by construction.  Large arrays are anonymous
 * mappings straight from the kernel; small ones come from calloc.  A
 * System built and discarded, or run briefly, never writes the cache
 * frames, policy stamps and table entries it did not use, and never
 * page-faults clearing them.  Only for element types whose all-zero
 * bytes are a valid initial state.
 */

#ifndef GARIBALDI_COMMON_ZEROED_ARRAY_HH
#define GARIBALDI_COMMON_ZEROED_ARRAY_HH

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>

namespace garibaldi
{

namespace detail
{
/** Unmaps a mapped array, frees a calloc'd one. */
struct ZeroedArrayDeleter
{
    std::size_t mappedBytes = 0; //!< 0 = calloc'd

    void
    operator()(void *p) const
    {
        if (mappedBytes)
            munmap(p, mappedBytes);
        else
            std::free(p);
    }
};
} // namespace detail

template <typename T>
using ZeroedArray = std::unique_ptr<T[], detail::ZeroedArrayDeleter>;

/**
 * Arrays at least this large are mapped, not calloc'd.  glibc's mmap
 * threshold rises to the largest block freed so far, after which calloc
 * serves such arrays from a heap it may have trimmed, and clearing them
 * faults in every page at construction.
 */
inline constexpr std::size_t kZeroedArrayMapBytes = std::size_t{64} << 10;

/** @p n zero-filled elements of @p T. */
template <typename T>
ZeroedArray<T>
makeZeroedArray(std::size_t n)
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "zero-filled storage must not need construction");
    if (n == 0)
        n = 1;
    if (n > SIZE_MAX / sizeof(T))
        throw std::bad_alloc();
    std::size_t bytes = n * sizeof(T);
    if (bytes >= kZeroedArrayMapBytes) {
        void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return ZeroedArray<T>(static_cast<T *>(p),
                              detail::ZeroedArrayDeleter{bytes});
    }
    void *p = std::calloc(n, sizeof(T));
    if (!p)
        throw std::bad_alloc();
    return ZeroedArray<T>(static_cast<T *>(p));
}

} // namespace garibaldi

#endif // GARIBALDI_COMMON_ZEROED_ARRAY_HH
